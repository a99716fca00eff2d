#include "support/cancellation.hpp"

#include <condition_variable>
#include <utility>

namespace isex {

void CancelToken::cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) reason_ = reason.empty() ? "cancelled" : reason;
  }
  flag_.store(true, std::memory_order_release);
}

std::string CancelToken::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

bool CancelToken::count_poll() {
  if (polls_.fetch_add(1, std::memory_order_relaxed) + 1 < trip_after_) return false;
  cancel("trip_after");
  return true;
}

DeadlineTimer::DeadlineTimer(CancelToken& token, std::chrono::steady_clock::time_point at,
                             std::string reason) {
  if (std::chrono::steady_clock::now() >= at) {
    token.cancel(reason);
    return;
  }
  thread_ = std::jthread([&token, at, reason = std::move(reason)](std::stop_token stop) {
    std::mutex mu;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mu);
    wake.wait_until(lock, stop, at, [] { return false; });
    if (!stop.stop_requested()) token.cancel(reason);
  });
}

}  // namespace isex
