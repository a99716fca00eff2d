// Minimal work-sharing executor used to parallelize the per-block
// identification searches. Block searches are independent and deterministic,
// so callers run them through `parallel_for` and merge the results in block
// order — the output is bit-identical to a serial run regardless of the
// thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace isex {

/// Abstract parallel-for provider. Implementations must invoke `fn(i)` for
/// every i in [0, n) exactly once and return only after all invocations have
/// finished. Exceptions thrown by `fn` are rethrown on the calling thread.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) = 0;
  /// Worker count (1 for the serial executor); callers may use it to skip
  /// parallel setup for tiny inputs.
  virtual int num_threads() const = 0;
};

/// Runs everything inline on the calling thread.
Executor& serial_executor();

/// Fixed-size pool of worker threads. The calling thread participates in
/// each parallel_for, so `ThreadPool(1)` spawns no workers at all.
///
/// Re-entrancy: a parallel_for with a single item runs inline and leaves
/// the pool free, so a nested parallel_for issued from inside that item
/// (e.g. subtree-parallel identification under a one-block outer loop)
/// still fans out. A nested parallel_for issued from inside a multi-item
/// job on the same pool runs its items inline on the issuing thread.
class ThreadPool : public Executor {
 public:
  /// `num_threads <= 0` uses std::thread::hardware_concurrency(), falling
  /// back to a single thread when the runtime cannot report one. When a
  /// worker cannot be spawned, the workers already started are joined and
  /// the spawn's exception (typically std::system_error) propagates.
  explicit ThreadPool(int num_threads);

  /// Maps a requested thread count onto the count the pool actually uses:
  /// `requested >= 1` is taken as-is; `requested <= 0` asks for `hardware`
  /// threads. std::thread::hardware_concurrency() is allowed to return 0
  /// ("not computable"), so a zero `hardware` resolves to 1 rather than an
  /// empty pool. Exposed as the unit-testable seam of that policy.
  static int resolved_thread_count(int requested, unsigned hardware);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override;
  int num_threads() const override { return static_cast<int>(workers_.size()) + 1; }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;      // next index to claim
    std::size_t in_flight = 0; // claimed but not yet finished
    std::exception_ptr error;
  };

  void worker_loop();
  /// Wakes every worker with the stop flag and joins it.
  void stop_workers();
  /// Claims and runs indices of the current job until none remain.
  void drain(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a job
  std::condition_variable done_cv_;  // caller waits for completion
  Job job_;
  std::uint64_t generation_ = 0;  // bumped per parallel_for
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace isex
