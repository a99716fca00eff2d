// Robustness of the daemon against hostile or broken clients: malformed
// frames, oversized payloads, unknown versions and mid-stream disconnects
// must produce a structured error event or a clean connection drop — never
// a daemon crash — and the admission queue's bounding/dedup rules must hold
// deterministically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/result_store.hpp"
#include "support/assert.hpp"
#include "support/fault_injection.hpp"
#include "support/socket.hpp"

namespace isex {
namespace {

std::string temp_socket_path(const std::string& tag) {
  return testing::TempDir() + "isexr-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonConfig config)
      : daemon_(std::move(config)), thread_([this] { daemon_.serve(); }) {}

  ~DaemonRunner() {
    daemon_.request_stop();
    thread_.join();
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

ExplorationRequest tiny_request() {
  ExplorationRequest request;
  request.workload = "fir";
  request.constraints.max_inputs = 2;
  request.constraints.max_outputs = 1;
  request.num_instructions = 2;
  return request;
}

/// Waits (bounded) until the daemon's store reports `served` requests.
void wait_for_served(IsexDaemon& daemon, std::uint64_t served) {
  for (int i = 0; i < 500; ++i) {
    if (daemon.store().status().at("requests_served").as_uint() >= served) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "daemon never served " << served << " request(s)";
}

TEST(ServiceRobustness, MalformedFramesGetStructuredErrorsAndTheConnectionLivesOn) {
  DaemonRunner runner(base_config("bad"));
  IsexClient client(runner.socket());

  struct Case {
    const char* line;
    const char* code;
    const char* id;  // expected correlation id on the error event
  };
  const Case cases[] = {
      {"this is not json at all", "bad-frame", ""},
      {"[1, 2, 3]", "bad-frame", ""},
      {R"({"id": "u1", "type": "ping"})", "bad-frame", "u1"},  // no version tag
      {R"({"isex": 99, "id": "u2", "type": "ping"})", "unsupported-version", "u2"},
      {R"({"isex": 1, "id": "u3", "type": "frobnicate"})", "bad-request", "u3"},
      {R"({"isex": 1, "id": "u4", "type": "explore"})", "bad-request", "u4"},
      {R"({"isex": 1, "id": "u5", "type": "explore", "request": {"workload": "no-such-kernel"}})",
       "bad-request", "u5"},
      {R"({"isex": 1, "id": "u6", "type": "explore", "request": {"workload": "fir", "num_instrctions": 3}})",
       "bad-request", "u6"},
      {R"({"isex": 1, "id": "u7", "type": "ping", "request": {}})", "bad-request", "u7"},
      {R"({"isex": 1, "id": "u8", "type": "explore", "request": {"workload": "fir", "emission": {}}})",
       "bad-request", "u8"},
  };
  for (const Case& c : cases) {
    client.send_line(std::string(c.line) + "\n");
    const std::optional<EventFrame> event = client.read_event();
    ASSERT_TRUE(event.has_value()) << c.line;
    EXPECT_EQ(event->event, "error") << c.line;
    EXPECT_EQ(event->id, c.id) << c.line;
    EXPECT_EQ(event->data.at("code").as_string(), c.code) << c.line;
  }

  // Stray blank lines are ignored, and the battered connection still serves
  // a real request end to end.
  client.send_line("\n");
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
}

TEST(ServiceRobustness, ThreadCountsPastTheHostCoresAreBadRequests) {
  DaemonRunner runner(base_config("threads"));
  IsexClient client(runner.socket());

  // Each request with num_threads != 1 builds its own pool, so the daemon
  // bounds the count by its cores, for both request types. A million
  // threads would otherwise exhaust the process.
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ExplorationRequest single = tiny_request();
  MultiExplorationRequest portfolio;
  portfolio.workloads.resize(1);
  portfolio.workloads[0].workload = "fir";
  portfolio.constraints = single.constraints;
  portfolio.num_instructions = 2;
  for (const int threads : {cores + 1, 1000000}) {
    single.num_threads = threads;
    portfolio.num_threads = threads;
    try {
      client.explore(single);
      FAIL() << threads << " threads unexpectedly admitted";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), std::string(kErrBadRequest));
      EXPECT_NE(std::string(e.what()).find("num_threads"), std::string::npos) << e.what();
    }
    try {
      client.explore_portfolio(portfolio);
      FAIL() << threads << " portfolio threads unexpectedly admitted";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), std::string(kErrBadRequest));
    }
  }

  // The same connection then serves normally, and 0 still means "all cores".
  single.num_threads = 0;
  EXPECT_EQ(client.explore(single).at("kind").as_string(), "exploration");
  single.num_threads = cores;
  EXPECT_EQ(client.explore(single).at("kind").as_string(), "exploration");
}

TEST(ServiceRobustness, OversizedFramesDropOnlyTheOffendingConnection) {
  DaemonConfig config = base_config("big");
  config.max_frame_bytes = 4096;
  DaemonRunner runner(config);

  IsexClient offender(runner.socket());
  offender.send_line(std::string(100000, 'x') + "\n");
  // The daemon drops the connection rather than buffering without bound:
  // the event stream ends without a frame.
  EXPECT_FALSE(offender.read_event().has_value());

  // The daemon itself is unharmed: a fresh connection works.
  IsexClient client(runner.socket());
  EXPECT_GE(client.ping().at("requests_served").as_uint(), 0u);
  EXPECT_EQ(client.explore(tiny_request()).at("kind").as_string(), "exploration");
}

TEST(ServiceRobustness, MidStreamDisconnectsNeverKillTheDaemon) {
  DaemonRunner runner(base_config("eof"));

  {
    // Disconnect right after submitting: the job runs to completion and its
    // publisher quietly drops the dead subscriber.
    IsexClient hit_and_run(runner.socket());
    RequestFrame frame;
    frame.type = "explore";
    frame.single = tiny_request();
    hit_and_run.send_frame(std::move(frame));
  }  // socket closes here, mid-stream
  wait_for_served(runner.daemon(), 1);

  {
    // A partial frame (no terminating newline) followed by EOF is a clean
    // detach, not a parse attempt.
    FdHandle fd = connect_unix(runner.socket());
    ASSERT_TRUE(write_all(fd.get(), R"({"isex": 1, "type": "pi)"));
  }

  {
    // Immediate disconnect without a single byte.
    FdHandle fd = connect_unix(runner.socket());
  }

  // After all of that the daemon still serves normally.
  IsexClient client(runner.socket());
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
  EXPECT_GE(payload.at("store").at("requests_served").as_uint(), 2u);
}

// --- admission-queue policies (deterministic, no sockets) -------------------

/// Records every event it receives; optionally plays dead.
class RecordingSink : public EventSink {
 public:
  bool emit(const std::string& id, const std::string& event, const Json& data) override {
    if (dead) return false;
    std::lock_guard<std::mutex> lock(mu);
    events.emplace_back(id, event);
    last_data = data;
    return true;
  }

  std::vector<std::pair<std::string, std::string>> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return events;
  }

  std::mutex mu;
  std::vector<std::pair<std::string, std::string>> events;
  Json last_data;
  bool dead = false;
};

RequestFrame frame_for(const std::string& workload, int num_instructions = 4) {
  RequestFrame frame;
  frame.type = "explore";
  frame.single = tiny_request();
  frame.single->workload = workload;
  frame.single->num_instructions = num_instructions;
  return frame;
}

TEST(ServiceRobustness, AdmissionQueueBoundsAndDedupsDeterministically) {
  AdmissionQueue queue(/*max_queue=*/2);
  auto sink = std::make_shared<RecordingSink>();

  // Two distinct jobs fill the queue; the third distinct one is rejected.
  EXPECT_FALSE(queue.submit(frame_for("fir"), "a", sink).deduped);
  EXPECT_FALSE(queue.submit(frame_for("sha1"), "b", sink).deduped);
  try {
    queue.submit(frame_for("crc32"), "c", sink);
    FAIL() << "third distinct submit should hit the bound";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrQueueFull));
  }

  // A duplicate of a queued job attaches instead — dedup adds no work, so
  // it succeeds even at capacity.
  const AdmissionResult dup = queue.submit(frame_for("fir"), "d", sink);
  EXPECT_TRUE(dup.deduped);
  EXPECT_EQ(queue.depth(), 2u);

  // Every admitted subscriber got exactly one accepted event, in order.
  const auto events = sink->snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const auto& [id, event] : events) EXPECT_EQ(event, "accepted");
  EXPECT_EQ(events[0].first, "a");
  EXPECT_EQ(events[2].first, "d");
  // No dispatch runs more than one job, so every accepted event says so.
  EXPECT_FALSE(sink->last_data.at("batched").as_bool());
  EXPECT_EQ(sink->last_data.at("batch_size").as_uint(), 1u);

  // Workers see the dedup: the fir job carries both subscribers. Each
  // dispatch takes one job, even though sha1 shares fir's type, scheme and
  // constraints. Finishing them reopens both the bound and the fingerprint.
  const ServiceJobPtr fir = queue.next_job();
  ASSERT_NE(fir, nullptr);
  EXPECT_EQ(fir->frame().single->workload, "fir");
  EXPECT_EQ(queue.depth(), 1u);
  const ServiceJobPtr sha1 = queue.next_job();
  ASSERT_NE(sha1, nullptr);
  EXPECT_EQ(sha1->frame().single->workload, "sha1");
  for (const ServiceJobPtr& job : {fir, sha1}) {
    EXPECT_FALSE(queue.idle());
    job->publish_terminal("report", Json::object());
    queue.finish(job);
  }
  EXPECT_TRUE(queue.idle());
  EXPECT_FALSE(queue.submit(frame_for("fir"), "e", sink).deduped);
  const ServiceJobPtr leftover = queue.next_job();
  ASSERT_NE(leftover, nullptr);
  queue.finish(leftover);

  // After drain(), everything is refused with shutting-down.
  queue.drain();
  try {
    queue.submit(frame_for("gsm"), "f", sink);
    FAIL() << "post-drain submit should be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrShuttingDown));
  }
  queue.close();
  EXPECT_EQ(queue.next_job(), nullptr);
}

TEST(ServiceRobustness, DeadSubscribersAreDroppedAndLateAttachersReplayTheTerminal) {
  ServiceJob job(frame_for("fir"), 1);
  auto alive = std::make_shared<RecordingSink>();
  auto dying = std::make_shared<RecordingSink>();
  job.attach("a", alive, Json::object());
  job.attach("d", dying, Json::object());

  job.publish("extracted", Json::object());
  dying->dead = true;  // client vanishes mid-stream
  job.publish("identified", Json::object());
  job.publish("selected", Json::object());

  Json terminal = Json::object();
  terminal.set("kind", std::string("exploration"));
  job.publish_terminal("report", terminal);
  EXPECT_TRUE(job.finished());

  // The live subscriber saw the full stream; the dead one stopped cold and
  // was dropped without disturbing anything.
  std::vector<std::string> alive_events;
  for (const auto& [id, event] : alive->snapshot()) alive_events.push_back(event);
  const std::vector<std::string> full = {"accepted", "extracted", "identified",
                                         "selected", "report"};
  EXPECT_EQ(alive_events, full);
  EXPECT_EQ(dying->snapshot().size(), 2u);  // accepted + extracted only

  // A subscriber attaching after the fact still gets accepted + the
  // recorded terminal — never a silent hang.
  auto late = std::make_shared<RecordingSink>();
  job.attach("l", late, Json::object());
  const auto late_events = late->snapshot();
  ASSERT_EQ(late_events.size(), 2u);
  EXPECT_EQ(late_events[0].second, "accepted");
  EXPECT_EQ(late_events[1].second, "report");
  EXPECT_EQ(late->last_data.at("kind").as_string(), "exploration");
}

// --- snapshot quarantine and fault injection --------------------------------

/// Clears the process-global fault injector on scope exit so no test can
/// leak an armed fault point into the rest of the binary.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
  FaultInjector& fi = FaultInjector::instance();
};

std::string temp_memo_path(const std::string& tag) {
  return testing::TempDir() + "isexr-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".memo";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ServiceRobustness, CorruptSnapshotsAreQuarantinedAndTheStoreBootsCold) {
  const std::string path = temp_memo_path("garbage");
  const std::string quarantine = path + ".corrupt";
  { std::ofstream(path) << "this was never a memo snapshot"; }

  ResultStoreConfig config;
  config.snapshot_path = path;
  ResultStore store(config);
  EXPECT_TRUE(store.quarantined());
  EXPECT_FALSE(store.warm_started());
  // The bad file moved aside — evidence kept, boot path cleared.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_EQ(slurp(quarantine), "this was never a memo snapshot");

  // The quarantined store persists normally from here on.
  store.note_activity();
  EXPECT_TRUE(store.snapshot());
  ResultStore next(config);
  EXPECT_TRUE(next.warm_started());
  EXPECT_FALSE(next.quarantined());
  ::unlink(path.c_str());
  ::unlink(quarantine.c_str());
}

TEST(ServiceRobustness, TornSnapshotWritesQuarantineOnTheNextBoot) {
  // Regression for the crash-mid-snapshot scenario, driven through the
  // deterministic snapshot-write fault: the write tears the file and throws,
  // the store stays dirty (nothing was persisted), and the next boot
  // quarantines the torn file instead of wedging.
  InjectorGuard guard;
  const std::string path = temp_memo_path("torn");
  ResultStoreConfig config;
  config.snapshot_path = path;

  ResultStore store(config);
  store.note_activity();
  guard.fi.arm("snapshot-write");
  EXPECT_THROW(store.snapshot(), Error);
  guard.fi.reset();
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);  // the torn file is on disk

  ResultStore rebooted(config);
  EXPECT_TRUE(rebooted.quarantined());
  EXPECT_FALSE(rebooted.warm_started());
  EXPECT_EQ(::access((path + ".corrupt").c_str(), F_OK), 0);

  // The injected failure left the dirty flag set, so the retried snapshot
  // (fault disarmed) persists the state that almost got lost.
  EXPECT_TRUE(store.snapshot());
  ResultStore recovered(config);
  EXPECT_TRUE(recovered.warm_started());
  ::unlink(path.c_str());
  ::unlink((path + ".corrupt").c_str());
}

// --- client-side failure taxonomy -------------------------------------------

TEST(ServiceRobustness, ConnectRefusedIsAConnectErrorAfterEveryAttempt) {
  ClientOptions options;
  options.connect_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  const std::string nowhere = temp_socket_path("nowhere");
  try {
    IsexClient client(nowhere, options);
    FAIL() << "connected to a socket nobody listens on";
  } catch (const ConnectError& e) {
    EXPECT_NE(std::string(e.what()).find("3 attempt(s)"), std::string::npos) << e.what();
  }
  // The taxonomy refines SocketError, so legacy catch sites keep working.
  try {
    IsexClient client(nowhere, options);
    FAIL() << "connected to a socket nobody listens on";
  } catch (const SocketError&) {
  }
}

TEST(ServiceRobustness, SilentServerIsATimeoutErrorNotADisconnect) {
  // A listener that never answers: the connection succeeds (backlog), no
  // event ever arrives, and the client's own request timeout fires.
  UnixListener mute(temp_socket_path("mute"));
  ClientOptions options;
  options.request_timeout_ms = 50;
  IsexClient client(mute.path(), options);
  EXPECT_THROW(client.explore(tiny_request()), TimeoutError);
}

TEST(ServiceRobustness, MidStreamServerCloseIsADisconnectError) {
  UnixListener listener(temp_socket_path("drop"));
  std::thread server([&] {
    // Accept one connection and close it immediately — a daemon crash as
    // seen from the client.
    FdHandle victim = listener.accept_client(/*timeout_ms=*/5000);
  });
  IsexClient client(listener.path());
  EXPECT_THROW(client.explore(tiny_request()), DisconnectError);
  server.join();
}

TEST(ServiceRobustness, InjectedAcceptFaultsNeverKillTheDaemonAndReconnectRidesThrough) {
  // The daemon's first two accepts fail (after accepting — the client sees
  // its connection die); the serve loop must shrug both off, and the
  // client's reconnect loop must ride through under the same correlation
  // id until the third accept sticks.
  InjectorGuard guard;
  guard.fi.arm("socket-accept:0:2");
  DaemonRunner runner(base_config("afault"));

  ClientOptions options;
  options.connect_attempts = 4;
  options.reconnect_attempts = 4;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  IsexClient client(runner.socket(), options);
  const Json payload = client.explore(tiny_request());
  EXPECT_EQ(payload.at("kind").as_string(), "exploration");

  // And the daemon is fully healthy for fresh connections.
  guard.fi.reset();
  IsexClient after(runner.socket());
  EXPECT_GE(after.ping().at("requests_served").as_uint(), 1u);
}

}  // namespace
}  // namespace isex
