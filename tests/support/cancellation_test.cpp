// The cooperative-cancellation primitive and the deterministic fault
// injector: set-once cancel semantics, the poll() seam the search engines
// rely on, the deadline timer that trips a token, and the ISEX_FAULTS spec
// grammar with its reproducible failure sequences.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "support/assert.hpp"
#include "support/cancellation.hpp"
#include "support/fault_injection.hpp"

namespace isex {
namespace {

TEST(CancelToken, CancelIsSetOnceAndSticky) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.reason().empty());

  token.cancel("watchdog");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "watchdog");

  // A later cancel never overwrites the first reason — the report's
  // partial_reason must name the *original* cause.
  token.cancel("deadline_exceeded");
  EXPECT_EQ(token.reason(), "watchdog");
  EXPECT_TRUE(token.poll());
}

TEST(CancelToken, CancelWithoutAReasonGetsTheGenericOne) {
  CancelToken token;
  token.cancel("");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "cancelled");
}

TEST(CancelToken, UnarmedTokensNeverTrip) {
  CancelToken token;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, TripAfterPollsIsExactlyDeterministic) {
  CancelToken token;
  token.trip_after_polls(5);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(token.poll()) << "poll " << i;
  EXPECT_TRUE(token.poll());  // the 5th poll trips
  EXPECT_EQ(token.reason(), "trip_after");
  EXPECT_TRUE(token.poll());  // and it stays tripped
}

// --- deadline timer ----------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

TEST(DeadlineTimer, TripsTheTokenWithItsReasonWhenTheTimeComes) {
  CancelToken token;
  const DeadlineTimer timer(token, SteadyClock::now() + std::chrono::milliseconds(20),
                            kReasonDeadlineExceeded);
  // The timer's own thread trips the token; a poller only ever reads the
  // flag. The bound is a safety net for a wedged timer, not a timing claim.
  const auto give_up = SteadyClock::now() + std::chrono::seconds(20);
  while (!token.poll() && SteadyClock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), kReasonDeadlineExceeded);
}

TEST(DeadlineTimer, ATimeAlreadyPastTripsTheTokenInTheConstructor) {
  CancelToken token;
  const DeadlineTimer timer(token, SteadyClock::now() - std::chrono::milliseconds(1),
                            "watchdog");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "watchdog");
}

TEST(DeadlineTimer, ATimerDestroyedBeforeItsTimeNeverTripsTheToken) {
  CancelToken token;
  const auto start = SteadyClock::now();
  {
    const DeadlineTimer far(token, start + std::chrono::hours(1), kReasonDeadlineExceeded);
    const DeadlineTimer near(token, start + std::chrono::milliseconds(200),
                             kReasonDeadlineExceeded);
  }
  // Destruction wakes the waiting threads instead of sleeping out the hour,
  // and the near timer's time passes with nothing left to trip the token.
  EXPECT_LT(SteadyClock::now() - start, std::chrono::milliseconds(200));
  std::this_thread::sleep_until(start + std::chrono::milliseconds(400));
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.reason().empty());
}

// --- fault injector ---------------------------------------------------------

/// Clears the process-global injector on scope exit so no test can leak an
/// armed fault point into the rest of the binary.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
  FaultInjector& fi = FaultInjector::instance();
};

TEST(FaultInjector, DisarmedInjectorNeverFails) {
  InjectorGuard guard;
  guard.fi.reset();
  EXPECT_FALSE(guard.fi.armed());
  EXPECT_FALSE(guard.fi.should_fail("snapshot-write"));
}

TEST(FaultInjector, BarePointFailsExactlyTheFirstHit) {
  InjectorGuard guard;
  guard.fi.arm("snapshot-write");
  EXPECT_TRUE(guard.fi.armed());
  EXPECT_TRUE(guard.fi.should_fail("snapshot-write"));
  EXPECT_FALSE(guard.fi.should_fail("snapshot-write"));
  // Unlisted points are never touched.
  EXPECT_FALSE(guard.fi.should_fail("socket-accept"));
}

TEST(FaultInjector, SkipAndCountSequenceExactly) {
  InjectorGuard guard;
  guard.fi.arm("frame-read:2:3");
  std::vector<bool> hits;
  for (int i = 0; i < 8; ++i) hits.push_back(guard.fi.should_fail("frame-read"));
  const std::vector<bool> expected = {false, false, true, true, true,
                                      false, false, false};
  EXPECT_EQ(hits, expected);
}

TEST(FaultInjector, CountZeroFailsForever) {
  InjectorGuard guard;
  guard.fi.arm("socket-accept:1:0");
  EXPECT_FALSE(guard.fi.should_fail("socket-accept"));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(guard.fi.should_fail("socket-accept"));
}

TEST(FaultInjector, RateModeIsSeedDeterministic) {
  InjectorGuard guard;
  const auto sequence = [&] {
    std::vector<bool> hits;
    for (int i = 0; i < 200; ++i) hits.push_back(guard.fi.should_fail("frame-read"));
    return hits;
  };
  guard.fi.arm("frame-read:rate:250:7");
  const std::vector<bool> first = sequence();
  guard.fi.arm("frame-read:rate:250:7");  // identical spec, identical run
  EXPECT_EQ(sequence(), first);
  guard.fi.arm("frame-read:rate:250:8");  // a different seed diverges
  EXPECT_NE(sequence(), first);

  // Extremes behave as advertised.
  guard.fi.arm("frame-read:rate:0:1");
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(guard.fi.should_fail("frame-read"));
  guard.fi.arm("frame-read:rate:1000:1");
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(guard.fi.should_fail("frame-read"));
}

TEST(FaultInjector, CommaSeparatedClausesArmIndependentPoints) {
  InjectorGuard guard;
  guard.fi.arm("snapshot-write,worker-dispatch:1");
  EXPECT_TRUE(guard.fi.should_fail("snapshot-write"));
  EXPECT_FALSE(guard.fi.should_fail("worker-dispatch"));  // skip 1
  EXPECT_TRUE(guard.fi.should_fail("worker-dispatch"));
  // Re-arming replaces the whole previous spec and its counters.
  guard.fi.arm("snapshot-write");
  EXPECT_TRUE(guard.fi.should_fail("snapshot-write"));
  EXPECT_FALSE(guard.fi.should_fail("worker-dispatch"));
}

TEST(FaultInjector, MalformedSpecsThrowAndEmptySpecDisarms) {
  InjectorGuard guard;
  for (const char* bad : {":", "p:x", "p:rate:abc:1", "p:rate:1001:1",
                          "p:1:2:3", "p:rate:500:1:9"}) {
    EXPECT_THROW(guard.fi.arm(bad), Error) << bad;
  }
  guard.fi.arm("snapshot-write");
  guard.fi.arm("");
  EXPECT_FALSE(guard.fi.armed());
  EXPECT_FALSE(guard.fi.should_fail("snapshot-write"));
}

}  // namespace
}  // namespace isex
