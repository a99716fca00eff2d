// Cooperative cancellation for the exploration pipeline: one token shared
// by everything a request runs — the client's deadline, the daemon's
// per-request ceiling, the search engines' hot loops — so an expired or
// abandoned request stops burning CPU at the next poll instead of running
// to completion.
//
// The contract mirrors BudgetGate's: checks are *cooperative* (the engines
// poll at the same cadence as the budget gate — once per search-tree node)
// and *pure* until the token trips — a token that never fires changes
// nothing, so results stay byte-identical across subtree-split thread
// counts. Once tripped, searches return their best-so-far partial answer
// with stats.cancelled set, and the memo layer refuses to store them (same
// discipline as exhausted-gate results: the cache key cannot see the token).
//
// The token is a plain flag and never reads a clock: time lives in
// DeadlineTimer, which trips a token from its own thread when a steady-clock
// time point passes. trip_after_polls() is the deterministic test seam: it
// fires on a poll *count* rather than the wall clock, so cancellation-purity
// tests do not depend on timing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace isex {

/// The canonical reason a deadline trips a token with; clients and the
/// daemon surface it verbatim (report.partial_reason, error payloads).
inline constexpr const char* kReasonDeadlineExceeded = "deadline_exceeded";

class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token. The first caller's reason sticks (set-once); the flag
  /// store is release-ordered so a poller that observes it also observes the
  /// reason. Idempotent and thread-safe — a deadline and the daemon's
  /// ceiling may race, and either outcome is a correctly-attributed
  /// cancellation.
  void cancel(const std::string& reason);

  /// Whether the token tripped; acquire-ordered, so reason() is set.
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

  /// The first cancel()'s reason; empty while the token is untripped.
  std::string reason() const;

  /// Hot-loop check, one flag load; counts the call only while the
  /// trip_after_polls seam is armed. Returns the tripped state. A
  /// never-firing token leaves every search byte-identical.
  bool poll() { return cancelled() || (trip_after_ != 0 && count_poll()); }

  /// Deterministic test seam: poll() trips the token (reason "trip_after")
  /// once the shared poll count reaches `n` (0 = off). Must be called before
  /// the token is shared with pollers.
  void trip_after_polls(std::uint64_t n) { trip_after_ = n; }

 private:
  bool count_poll();

  std::atomic<bool> flag_{false};
  std::atomic<std::uint64_t> polls_{0};
  std::uint64_t trip_after_ = 0;

  mutable std::mutex mu_;  // guards reason_
  std::string reason_;
};

/// Trips `token` with `reason` at the steady-clock time point `at`. A time
/// already past trips it in the constructor; otherwise one waiting thread
/// trips it when the time comes. Destruction stops and joins that thread,
/// so a timer destroyed before its time never trips the token. The token
/// must outlive the timer.
class DeadlineTimer {
 public:
  DeadlineTimer(CancelToken& token, std::chrono::steady_clock::time_point at,
                std::string reason);

 private:
  std::jthread thread_;
};

}  // namespace isex
