#include "support/parallel.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace isex {

namespace {

/// The pool whose job this thread is currently draining, if any. Guards
/// against re-entering a pool's single job slot: a nested parallel_for on
/// the same pool runs inline instead (deterministic either way — callers
/// rely on parallel_for being order-independent).
thread_local const void* tls_draining_pool = nullptr;

class SerialExecutor : public Executor {
 public:
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  int num_threads() const override { return 1; }
};

}  // namespace

Executor& serial_executor() {
  static SerialExecutor exec;
  return exec;
}

int ThreadPool::resolved_thread_count(int requested, unsigned hardware) {
  if (requested >= 1) return requested;
  if (hardware == 0) return 1;  // hardware_concurrency() may be "not computable"
  return static_cast<int>(std::min(hardware, 1u << 16));
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads = resolved_thread_count(num_threads, std::thread::hardware_concurrency());
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  try {
    for (int i = 1; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn (out of threads or address space) leaves the workers
    // started so far joinable; destroying them unjoined would terminate
    // the process, so stop them and let the caller see the failure.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(std::unique_lock<std::mutex>& lock) {
  while (job_.next < job_.n) {
    const std::size_t i = job_.next++;
    ++job_.in_flight;
    lock.unlock();
    std::exception_ptr error;
    const void* const prev_pool = tls_draining_pool;
    tls_draining_pool = this;
    try {
      (*job_.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    tls_draining_pool = prev_pool;
    lock.lock();
    if (error && !job_.error) job_.error = error;
    --job_.in_flight;
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || (generation_ != seen && job_.next < job_.n); });
    if (stopping_) return;
    seen = generation_;
    drain(lock);
    if (job_.in_flight == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // A single item runs on the caller directly, leaving the pool's job slot
  // free — so a nested parallel_for from inside the item (e.g. the
  // subtree-parallel enumeration under a one-block outer loop) still fans
  // out across the workers.
  if (n == 1) {
    fn(0);
    return;
  }
  // A worker (or the caller mid-drain) re-entering its own pool would
  // corrupt the single job slot; run the nested region inline instead.
  if (tls_draining_pool == this) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  ISEX_CHECK(job_.fn == nullptr, "nested parallel_for on the same ThreadPool");
  job_ = Job{&fn, n, 0, 0, nullptr};
  ++generation_;
  work_cv_.notify_all();
  drain(lock);  // the caller participates
  done_cv_.wait(lock, [&] { return job_.in_flight == 0; });
  const std::exception_ptr error = job_.error;
  job_ = Job{};
  if (error) std::rethrow_exception(error);
}

}  // namespace isex
