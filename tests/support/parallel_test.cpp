// Executor / ThreadPool behaviour, including the regression for
// num_threads = 0 when std::thread::hardware_concurrency() is unknown (it
// is allowed to return 0, which must resolve to one thread, not an empty
// pool) and a pool whose worker spawn fails part-way.
#include "support/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include "address_space.hpp"
#include "support/assert.hpp"

namespace isex {
namespace {

TEST(ThreadPool, ResolvedThreadCountHonoursExplicitRequests) {
  EXPECT_EQ(ThreadPool::resolved_thread_count(1, 0), 1);
  EXPECT_EQ(ThreadPool::resolved_thread_count(3, 0), 3);
  EXPECT_EQ(ThreadPool::resolved_thread_count(7, 16), 7);
}

TEST(ThreadPool, ResolvedThreadCountUsesHardwareConcurrency) {
  EXPECT_EQ(ThreadPool::resolved_thread_count(0, 8), 8);
  EXPECT_EQ(ThreadPool::resolved_thread_count(-1, 4), 4);
}

TEST(ThreadPool, ResolvedThreadCountFallsBackWhenHardwareUnknown) {
  // std::thread::hardware_concurrency() may return 0 ("not computable");
  // the pool must fall back to a single thread instead of zero workers.
  EXPECT_EQ(ThreadPool::resolved_thread_count(0, 0), 1);
  EXPECT_EQ(ThreadPool::resolved_thread_count(-5, 0), 1);
}

TEST(ThreadPool, HardwareConcurrencyRequestConstructsAndRuns) {
  ThreadPool pool(0);  // whatever this host reports, including 0
  EXPECT_GE(pool.num_threads(), 1);
  std::vector<int> out(100, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> calls{0};
  pool.parallel_for(17, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 17);
}

TEST(ThreadPool, InvokesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, RethrowsWorkerExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw Error("boom");
                                 }),
               Error);
  // The pool stays usable after an exceptional job.
  std::atomic<int> calls{0};
  pool.parallel_for(8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

/// Threads of this process, as the kernel lists them.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ThreadPoolDeathTest, FailedSpawnThrowsAndJoinsTheStartedWorkers) {
#ifdef ISEX_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than the cap allows";
#else
  // The child caps its address space a little above what it maps, so a big
  // pool runs out of thread stacks part-way. The pool must throw and join
  // the workers it started: destroying a joinable std::thread would call
  // std::terminate instead.
  EXPECT_EXIT(
      {
        const std::size_t before = live_threads();
        if (!cap_address_space(std::size_t{64} << 20)) std::_Exit(4);
        try {
          ThreadPool pool(100000);
          std::_Exit(2);  // the cap never bit
        } catch (const std::exception&) {  // std::system_error, or bad_alloc
          // A joined thread can stay listed for a moment after join returns.
          for (int i = 0; i < 100 && live_threads() != before; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
          std::_Exit(live_threads() == before ? 0 : 3);
        }
      },
      testing::ExitedWithCode(0), "");
#endif
}

TEST(SerialExecutor, RunsInlineInOrder) {
  std::vector<std::size_t> seen;
  serial_executor().parallel_for(5, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(serial_executor().num_threads(), 1);
}

}  // namespace
}  // namespace isex
