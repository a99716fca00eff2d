// Deadlines through the service stack: the protocol-v3 `deadline_ms` frame
// field, the daemon's timers on a per-job CancelToken (the deadline counted
// from admission, the max_request_ms ceiling from dispatch), partial reports
// for expired requests while other clients keep being served, and the
// queue-full load-shed hint.
// The slow job is simulated with a registered scheme that blocks until its
// cancel token fires, so nothing here depends on a kernel being slow enough.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/explorer.hpp"
#include "api/scheme.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "support/cancellation.hpp"

namespace isex {
namespace {

std::string temp_socket_path(const std::string& tag) {
  return testing::TempDir() + "isexdl-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonConfig config)
      : daemon_(std::move(config)), thread_([this] { daemon_.serve(); }) {}

  ~DaemonRunner() {
    daemon_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

  IsexDaemon& daemon() { return daemon_; }
  const std::string& socket() const { return daemon_.socket_path(); }

 private:
  IsexDaemon daemon_;
  std::thread thread_;
};

DaemonConfig base_config(const std::string& tag) {
  DaemonConfig config;
  config.socket_path = temp_socket_path(tag);
  config.accept_timeout_ms = 20;
  return config;
}

/// Simulates a pathological kernel deterministically: select() blocks until
/// the run's cancel token trips (deadline, watchdog, ...), then returns an
/// empty selection. A bounded safety net keeps a misconfigured test from
/// wedging the suite.
class BlockingScheme : public SelectionScheme {
 public:
  const std::string& name() const override {
    static const std::string n = "blocking";
    return n;
  }
  const std::string& description() const override {
    static const std::string d = "test scheme: blocks until cancelled";
    return d;
  }
  PortfolioSelectionResult select(const SchemeInputs& inputs) const override {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (inputs.search.cancel == nullptr || !inputs.search.cancel->cancelled()) {
      if (std::chrono::steady_clock::now() >= give_up) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};
  }
};

SchemeRegistry* blocking_registry() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    register_builtin_schemes(*r);
    r->add(std::make_unique<BlockingScheme>());
    return r;
  }();
  return registry;
}

ExplorationRequest request_for(const std::string& workload, const std::string& scheme) {
  ExplorationRequest request;
  request.workload = workload;
  request.scheme = scheme;
  request.constraints.max_inputs = 2;
  request.constraints.max_outputs = 1;
  request.num_instructions = 2;
  return request;
}

// --- protocol level ---------------------------------------------------------

TEST(ServiceDeadline, DeadlineFieldRoundTripsAndFingerprintsOnV3Frames) {
  RequestFrame frame;
  frame.id = "d1";
  frame.type = "explore";
  frame.single = request_for("fir", "iterative");
  frame.deadline_ms = 750;

  const std::string line = dump_request_frame(frame);
  EXPECT_NE(line.find("\"deadline_ms\":750"), std::string::npos) << line;
  const RequestFrame back = parse_request_frame(line);
  EXPECT_EQ(back.deadline_ms, 750u);

  // No deadline spends no wire bytes — pre-v3 fingerprints stay stable.
  frame.deadline_ms = 0;
  const std::string bare = dump_request_frame(frame);
  EXPECT_EQ(Json::parse(bare).find("deadline_ms"), nullptr);
  EXPECT_EQ(parse_request_frame(bare).deadline_ms, 0u);

  // Distinct deadlines are distinct computations (a tighter deadline may
  // legitimately produce a smaller partial result), so they never dedup
  // together; equal deadlines still do.
  RequestFrame tight = frame, loose = frame;
  tight.deadline_ms = 100;
  loose.deadline_ms = 200;
  EXPECT_NE(request_fingerprint(tight), request_fingerprint(loose));
  EXPECT_NE(request_fingerprint(tight), request_fingerprint(frame));
  RequestFrame twin = tight;
  twin.id = "other";
  EXPECT_EQ(request_fingerprint(twin), request_fingerprint(tight));
}

TEST(ServiceDeadline, PreVersionThreeFramesCannotCarryADeadline) {
  for (int version : {1, 2}) {
    const std::string line = "{\"isex\": " + std::to_string(version) +
                             R"(, "id": "x", "type": "ping", "deadline_ms": 5})";
    try {
      parse_request_frame(line);
      FAIL() << line << " unexpectedly parsed";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), std::string(kErrBadRequest)) << e.what();
      EXPECT_NE(std::string(e.what()).find("deadline_ms"), std::string::npos);
    }
  }
  // The same field under a v3 tag is fine.
  EXPECT_EQ(parse_request_frame(
                R"({"isex": 3, "id": "x", "type": "ping", "deadline_ms": 5})")
                .deadline_ms,
            5u);
}

// --- daemon level -----------------------------------------------------------

TEST(ServiceDeadlineDaemon, ExpiredDeadlineAnswersPartialWhileOthersAreServed) {
  DaemonConfig config = base_config("dl");
  config.num_workers = 2;
  config.registry = blocking_registry();
  DaemonRunner runner(config);

  const auto start = std::chrono::steady_clock::now();
  IsexClient stuck(runner.socket());
  ExplorationRequest doomed = request_for("fir", "blocking");
  doomed.deadline_ms = 300;
  RequestFrame frame;
  frame.type = "explore";
  frame.deadline_ms = doomed.deadline_ms;
  frame.single = doomed;
  const std::string doomed_id = stuck.send_frame(std::move(frame));

  // While the doomed job burns its deadline on one worker, the other keeps
  // serving: a normal request completes end to end.
  IsexClient healthy(runner.socket());
  const Json normal = healthy.explore(request_for("fir", "iterative"));
  EXPECT_EQ(normal.at("kind").as_string(), "exploration");
  EXPECT_EQ(normal.at("report").find("partial"), nullptr);

  // The doomed job answers a structured partial report — not an error, not
  // a hang — within bounded time.
  const Json payload = stuck.collect_report(doomed_id);
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
  EXPECT_TRUE(payload.at("report").at("partial").as_bool());
  EXPECT_EQ(payload.at("report").at("partial_reason").as_string(),
            kReasonDeadlineExceeded);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 15000) << "deadline did not bound the run";
}

TEST(ServiceDeadlineDaemon, WatchdogCancelsOverrunningJobs) {
  DaemonConfig config = base_config("wd");
  config.num_workers = 1;
  config.max_request_ms = 30;
  config.registry = blocking_registry();
  DaemonRunner runner(config);

  // No client deadline at all: the operator's watchdog ceiling is the only
  // thing standing between this job and the 20 s safety net.
  IsexClient client(runner.socket());
  const Json payload = client.explore(request_for("fir", "blocking"));
  EXPECT_TRUE(payload.at("report").at("partial").as_bool());
  EXPECT_EQ(payload.at("report").at("partial_reason").as_string(), "watchdog");

  // The worker survived its overrunning job and serves normally again.
  const Json after = client.explore(request_for("fir", "iterative"));
  EXPECT_EQ(after.at("kind").as_string(), "exploration");
  EXPECT_EQ(after.at("report").find("partial"), nullptr);
}

TEST(ServiceDeadlineDaemon, WatchdogTimesEveryQueuedJobFromItsOwnStart) {
  DaemonConfig config = base_config("wdq");
  config.num_workers = 1;
  config.max_request_ms = 300;
  config.registry = blocking_registry();
  DaemonRunner runner(config);

  const auto blocking_frame = [](const std::string& workload) {
    RequestFrame frame;
    frame.type = "explore";
    frame.single = request_for(workload, "blocking");
    return frame;
  };

  // The only worker runs an overrunning job...
  IsexClient client(runner.socket());
  const std::string head_id = client.send_frame(blocking_frame("fir"));
  while (true) {
    const std::optional<EventFrame> event = client.read_event();
    ASSERT_TRUE(event.has_value()) << "stream ended before the head job started";
    if (event->id == head_id && event->event == "extracted") break;
  }
  // ...while two jobs with the same type, scheme and constraints queue
  // behind it. Each must get the whole ceiling from its own start, so the
  // second cannot be cancelled while it waits for the first.
  const std::string first_id = client.send_frame(blocking_frame("crc32"));
  const std::string second_id = client.send_frame(blocking_frame("sha1"));

  std::map<std::string, std::chrono::steady_clock::time_point> finished;
  while (finished.size() < 3) {
    const std::optional<EventFrame> event = client.read_event();
    ASSERT_TRUE(event.has_value()) << "stream ended before every terminal event";
    if (event->event != "report" && event->event != "error") continue;
    finished[event->id] = std::chrono::steady_clock::now();
    ASSERT_EQ(event->event, "report") << event->data.dump();
    EXPECT_TRUE(event->data.at("report").at("partial").as_bool()) << event->id;
    EXPECT_EQ(event->data.at("report").at("partial_reason").as_string(), "watchdog")
        << event->id;
  }
  const auto gap = std::chrono::duration_cast<std::chrono::milliseconds>(
      finished.at(second_id) - finished.at(first_id));
  EXPECT_GE(gap.count(), 150) << "the second queued job was cancelled before it ran";
}

TEST(ServiceDeadlineDaemon, QueueWaitCountsAgainstTheDeadline) {
  DaemonConfig config = base_config("dlq");
  config.num_workers = 1;
  config.max_request_ms = 300;
  config.registry = blocking_registry();
  DaemonRunner runner(config);

  // The only worker is held for 300 ms by a job the ceiling ends...
  IsexClient client(runner.socket());
  RequestFrame head;
  head.type = "explore";
  head.single = request_for("fir", "blocking");
  const std::string head_id = client.send_frame(std::move(head));
  while (true) {
    const std::optional<EventFrame> event = client.read_event();
    ASSERT_TRUE(event.has_value()) << "stream ended before the head job started";
    if (event->id == head_id && event->event == "extracted") break;
  }
  // ...while a request whose search takes a few milliseconds waits behind it
  // with a 50 ms deadline. The deadline counts from admission, so it has
  // passed by the time the worker takes the request.
  ExplorationRequest late = request_for("crc32", "iterative");
  late.use_cache = false;
  RequestFrame frame;
  frame.type = "explore";
  frame.deadline_ms = 50;
  frame.single = late;
  const std::string late_id = client.send_frame(std::move(frame));

  std::string head_reason;
  const Json payload = client.collect_report(late_id, [&](const EventFrame& event) {
    if (event.id == head_id && event.event == "report") {
      head_reason = event.data.at("report").at("partial_reason").as_string();
    }
  });
  EXPECT_EQ(head_reason, "watchdog");
  EXPECT_TRUE(payload.at("report").at("partial").as_bool());
  EXPECT_EQ(payload.at("report").at("partial_reason").as_string(), kReasonDeadlineExceeded);
}

TEST(ServiceDeadlineDaemon, QueueFullShedsLoadWithARetryAfterHint) {
  DaemonConfig config = base_config("shed");
  config.num_workers = 1;
  config.max_queue = 1;
  config.registry = blocking_registry();
  DaemonRunner runner(config);

  // Occupy the only worker with a deadline-bounded blocking job, and wait
  // for its "extracted" phase so we know it left the queue.
  IsexClient stuck(runner.socket());
  ExplorationRequest doomed = request_for("fir", "blocking");
  doomed.deadline_ms = 600;
  RequestFrame frame;
  frame.type = "explore";
  frame.deadline_ms = doomed.deadline_ms;
  frame.single = doomed;
  const std::string doomed_id = stuck.send_frame(std::move(frame));
  while (true) {
    const std::optional<EventFrame> event = stuck.read_event();
    ASSERT_TRUE(event.has_value()) << "stream ended before the job started";
    if (event->id == doomed_id && event->event == "extracted") break;
  }

  // One queued job fills the bound; the next distinct one is shed with a
  // machine-readable back-off hint proportional to the queue depth.
  const std::string filler_id = stuck.send_frame([&] {
    RequestFrame f;
    f.type = "explore";
    f.single = request_for("sha1", "iterative");
    return f;
  }());
  while (true) {
    const std::optional<EventFrame> event = stuck.read_event();
    ASSERT_TRUE(event.has_value()) << "stream ended before the filler was admitted";
    if (event->id == filler_id && event->event == "accepted") break;
  }
  IsexClient shed(runner.socket());
  try {
    shed.explore(request_for("adpcmdecode", "iterative"));
    FAIL() << "submit past the bound unexpectedly admitted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrQueueFull));
    EXPECT_EQ(e.details().at("retry_after_ms").as_uint(), 100u);
  }

  // Once the deadline clears the stuck job, the queued filler still runs.
  EXPECT_TRUE(stuck.collect_report(doomed_id).at("report").at("partial").as_bool());
  EXPECT_EQ(stuck.collect_report(filler_id).at("kind").as_string(), "exploration");
}

}  // namespace
}  // namespace isex
