// Address-space caps for death tests. A forked child caps its own
// RLIMIT_AS a little above what it maps, so an allocation that grows with
// an unbounded input fails fast in the child (bad_alloc, or a thread spawn
// that runs out of stacks) instead of squeezing the whole machine.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <cstddef>
#include <fstream>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ISEX_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ISEX_UNDER_SANITIZER 1
#endif
#endif

namespace isex {

/// Bytes of address space this process has mapped.
inline std::size_t mapped_bytes() {
  std::size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  return pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// Caps this process's address space at what it maps now plus `headroom`.
/// False if the limit could not be set. Sanitizer runtimes reserve more
/// address space than such a cap allows: skip the caller under
/// ISEX_UNDER_SANITIZER.
inline bool cap_address_space(std::size_t headroom) {
  rlimit cap{};
  if (::getrlimit(RLIMIT_AS, &cap) != 0) return false;
  cap.rlim_cur = mapped_bytes() + headroom;
  return ::setrlimit(RLIMIT_AS, &cap) == 0;
}

}  // namespace isex
