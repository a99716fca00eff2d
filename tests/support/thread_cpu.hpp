// Thread-CPU timing for tests that bound the cost of real work. ctest runs
// tests in parallel on a machine others share, so a timing counts only the
// calling thread's CPU time and keeps the best of three runs.
#pragma once

#include <time.h>

#include <algorithm>
#include <limits>

namespace isex {

/// CPU time of the calling thread, so time spent waiting for a core is
/// not counted as cost.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

template <typename Fn>
double best_of_three_ms(Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 3; ++k) {
    const double start = thread_cpu_ms();
    fn();
    best = std::min(best, thread_cpu_ms() - start);
  }
  return best;
}

}  // namespace isex
