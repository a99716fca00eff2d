// End-to-end contract of the exploration daemon, exercised in-process: a
// real IsexDaemon serving on a temp Unix socket, real IsexClient
// connections, and byte-identity of the served reports against direct
// Explorer runs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/explorer.hpp"
#include "api/scheme.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"

namespace isex {
namespace {

std::string temp_socket_path(const std::string& tag) {
  // Keep it short: AF_UNIX paths cap out near 100 bytes.
  return testing::TempDir() + "isexd-" + tag + "-" +
         std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
}

/// Runs an IsexDaemon::serve() loop on a background thread for one test;
/// the destructor performs the graceful drain.
class DaemonRunner {
 public:
  explicit DaemonRunner(DaemonConfig config)
      : daemon_(std::move(config)), thread_([this] { daemon_.serve(); }) {}

  ~DaemonRunner() { stop(); }

  void stop() {
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
  config.accept_timeout_ms = 20;  // keep test shutdown snappy
  return config;
}

ExplorationRequest small_request(const std::string& workload, int nin, int nout) {
  ExplorationRequest request;
  request.workload = workload;
  request.scheme = "iterative";
  request.constraints.max_inputs = nin;
  request.constraints.max_outputs = nout;
  request.num_instructions = 6;
  return request;
}

/// `payload` minus the sections that legitimately differ between runs:
/// wall-clock timings always, cache counters when `drop_cache` (a daemon
/// whose store served other requests counts differently than a fresh one).
Json comparable(const Json& payload, bool drop_cache) {
  if (payload.type() == Json::Type::array) {
    Json filtered = Json::array();
    for (const Json& element : payload.as_array()) {
      filtered.push_back(comparable(element, drop_cache));
    }
    return filtered;
  }
  if (payload.type() != Json::Type::object) return payload;
  Json filtered = Json::object();
  for (const auto& [key, value] : payload.as_object()) {
    if (key == "timings" || (drop_cache && key == "cache")) continue;
    filtered.set(key, comparable(value, drop_cache));
  }
  return filtered;
}

TEST(ServiceDaemon, ServesReportsByteIdenticalToInProcessRuns) {
  DaemonRunner runner(base_config("e2e"));
  IsexClient client(runner.socket());

  const ExplorationRequest request = small_request("adpcmdecode", 4, 2);
  std::vector<std::string> events;
  const Json payload = client.explore(request, /*search_budget=*/0,
                                      [&](const EventFrame& e) { events.push_back(e.event); });

  // Full phase stream, in order, accepted strictly first.
  const std::vector<std::string> expected = {"accepted", "extracted", "identified",
                                             "selected", "report"};
  EXPECT_EQ(events, expected);

  EXPECT_EQ(payload.at("kind").as_string(), "exploration");
  EXPECT_EQ(payload.at("store").at("requests_served").as_uint(), 1u);
  EXPECT_EQ(payload.find("budget"), nullptr);  // unlimited request: no budget section

  // Both sides of the comparison are cold runs over empty caches, so only
  // the wall-clock timings may differ — cache counters included in the diff.
  const Explorer local(LatencyModel::standard_018um());
  const Json direct = local.run(request).to_json();
  EXPECT_EQ(stable_report_json(payload.at("report")).dump(),
            stable_report_json(direct).dump());

  // A repeat through the daemon's warm store is all-hit and still stable.
  const Json replay = client.explore(request);
  const Json counters = replay.at("report").at("cache");
  EXPECT_GT(counters.at("hits").as_uint(), 0u);
  EXPECT_EQ(counters.at("misses").as_uint(), 0u);
  EXPECT_EQ(comparable(replay.at("report"), true).dump(),
            comparable(direct, true).dump());

  // Ping reports the store's lifetime view.
  const Json status = client.ping();
  EXPECT_EQ(status.at("requests_served").as_uint(), 2u);
  EXPECT_GT(status.at("entries").as_uint(), 0u);
}

/// A selection scheme that holds its worker until the test releases it (or
/// 20 s pass, so a failing test cannot hang the daemon's drain).
class HeldScheme : public SelectionScheme {
 public:
  explicit HeldScheme(std::shared_future<void> release) : release_(std::move(release)) {}

  const std::string& name() const override {
    static const std::string n = "held";
    return n;
  }
  const std::string& description() const override {
    static const std::string d = "test scheme: returns once the test releases it";
    return d;
  }
  PortfolioSelectionResult select(const SchemeInputs&) const override {
    release_.wait_for(std::chrono::seconds(20));
    return {};
  }

 private:
  std::shared_future<void> release_;
};

TEST(ServiceDaemon, IdenticalInFlightRequestsAreDedupedToOneRun) {
  // One worker and a pipelined triple on one connection make the race
  // deterministic: the busy frame holds the worker until the test has seen
  // both twins accepted, so the identical pair always meets in the queue and
  // the second attaches to the first.
  std::promise<void> release;
  SchemeRegistry registry;
  register_builtin_schemes(registry);
  registry.add(std::make_unique<HeldScheme>(release.get_future().share()));
  DaemonConfig config = base_config("dedup");
  config.num_workers = 1;
  config.registry = &registry;
  DaemonRunner runner(config);
  IsexClient client(runner.socket());

  RequestFrame busy;
  busy.type = "explore";
  busy.single = small_request("sha1", 4, 2);
  busy.single->scheme = "held";
  RequestFrame twin;
  twin.type = "explore";
  twin.single = small_request("adpcmdecode", 3, 1);

  const std::string busy_id = client.send_frame(busy);
  const std::string first_id = client.send_frame(twin);
  const std::string second_id = client.send_frame(twin);

  // The accepted events for the pair go out during the busy run, so capture
  // them while draining the busy request's stream too; the second one
  // releases the busy run.
  Json first_accept, second_accept;
  bool released = false;
  const auto capture = [&](const EventFrame& e) {
    if (e.event != "accepted") return;
    if (e.id == first_id) first_accept = e.data;
    if (e.id == second_id) second_accept = e.data;
    if (!released && first_accept.type() == Json::Type::object &&
        second_accept.type() == Json::Type::object) {
      released = true;
      release.set_value();
    }
  };
  const Json busy_payload = client.collect_report(busy_id, capture);
  const Json first_payload = client.collect_report(first_id, capture);
  const Json second_payload = client.collect_report(second_id, capture);

  ASSERT_EQ(first_accept.type(), Json::Type::object);
  ASSERT_EQ(second_accept.type(), Json::Type::object);
  EXPECT_FALSE(first_accept.at("deduped").as_bool());
  EXPECT_TRUE(second_accept.at("deduped").as_bool());
  EXPECT_EQ(first_accept.at("fingerprint").as_string(),
            second_accept.at("fingerprint").as_string());

  // One run, two subscribers: the terminal payloads are the same bytes.
  EXPECT_EQ(first_payload.dump(), second_payload.dump());
  // And the shared result matches a direct in-process run (cache counters
  // excluded: the daemon's store had already served the busy request).
  const Explorer local(LatencyModel::standard_018um());
  EXPECT_EQ(comparable(first_payload.at("report"), true).dump(),
            comparable(local.run(*twin.single).to_json(), true).dump());
  EXPECT_EQ(busy_payload.at("kind").as_string(), "exploration");

  // The dedup window closed with the run: a later identical request is a
  // fresh job (served from the warm cache instead).
  Json late_accept;
  const Json late = client.explore(*twin.single, 0, [&](const EventFrame& e) {
    if (e.event == "accepted") late_accept = e.data;
  });
  EXPECT_FALSE(late_accept.at("deduped").as_bool());
  EXPECT_EQ(late.at("report").at("cache").at("misses").as_uint(), 0u);
}

TEST(ServiceDaemon, PortfolioRunsServeOverTheSocket) {
  DaemonRunner runner(base_config("pf"));
  IsexClient client(runner.socket());

  MultiExplorationRequest request;
  request.scheme = "joint-iterative";
  request.num_instructions = 6;
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  {
    PortfolioWorkloadRequest w;
    w.workload = "adpcmdecode";
    w.weight = 2.0;
    request.workloads.push_back(w);
    w.workload = "fir";
    w.weight = 1.0;
    request.workloads.push_back(w);
  }

  std::vector<std::string> events;
  const Json payload = client.explore_portfolio(
      request, 0, [&](const EventFrame& e) { events.push_back(e.event); });
  EXPECT_EQ(events.front(), "accepted");
  EXPECT_EQ(events.back(), "report");
  EXPECT_EQ(payload.at("kind").as_string(), "portfolio");

  const Explorer local(LatencyModel::standard_018um());
  const Json direct = local.run_portfolio(request).to_json();
  EXPECT_EQ(stable_report_json(payload.at("report")).dump(),
            stable_report_json(direct).dump());
  EXPECT_GT(payload.at("report").at("weighted_speedup").as_double(), 1.0);
}

TEST(ServiceDaemon, PerRequestBudgetPinsExactlyThroughTheServicePath) {
  DaemonRunner runner(base_config("budget"));
  IsexClient client(runner.socket());

  const ExplorationRequest request = small_request("adpcmdecode", 4, 2);
  const std::uint64_t budget = 50;  // far below the request's demand
  const Json payload = client.explore(request, budget);
  const Json* b = payload.find("budget");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->at("search_budget").as_uint(), budget);
  // The whole request draws on ONE gate, so the aggregate is exact.
  EXPECT_EQ(b->at("cuts_considered").as_uint(), budget);
  EXPECT_TRUE(b->at("exhausted").as_bool());

  // A roomy budget changes nothing about the result and reports the true
  // demand, unexhausted.
  const Json roomy = client.explore(request, 100000000);
  const Json* rb = roomy.find("budget");
  ASSERT_NE(rb, nullptr);
  EXPECT_FALSE(rb->at("exhausted").as_bool());
  EXPECT_GT(rb->at("cuts_considered").as_uint(), budget);
  const Explorer local(LatencyModel::standard_018um());
  EXPECT_EQ(comparable(roomy.at("report"), true).dump(),
            comparable(local.run(request).to_json(), true).dump());
}

TEST(ServiceDaemon, OperatorCeilingClampsClientBudgets) {
  DaemonConfig config = base_config("clamp");
  config.max_search_budget = 40;
  DaemonRunner runner(config);
  IsexClient client(runner.socket());

  // Unlimited request: clamped to the ceiling, visibly.
  const Json unlimited = client.explore(small_request("adpcmdecode", 4, 2));
  const Json* b = unlimited.find("budget");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->at("search_budget").as_uint(), 40u);
  EXPECT_EQ(b->at("cuts_considered").as_uint(), 40u);

  // Over-ceiling request: same clamp. Under-ceiling: honoured as asked.
  const Json over = client.explore(small_request("adpcmdecode", 4, 2), 100000);
  EXPECT_EQ(over.find("budget")->at("search_budget").as_uint(), 40u);
  const Json under = client.explore(small_request("adpcmdecode", 4, 2), 25);
  EXPECT_EQ(under.find("budget")->at("search_budget").as_uint(), 25u);
  EXPECT_EQ(under.find("budget")->at("cuts_considered").as_uint(), 25u);
}

TEST(ServiceDaemon, ShutdownSnapshotWarmStartsTheNextDaemon) {
  const std::string cache_file = testing::TempDir() + "isexd-warm-" +
                                 std::to_string(static_cast<unsigned>(::getpid())) +
                                 ".memo";
  ::unlink(cache_file.c_str());
  const ExplorationRequest request = small_request("fir", 3, 1);

  DaemonConfig config = base_config("snap1");
  config.cache_file = cache_file;
  Json cold;
  {
    DaemonRunner runner(config);
    IsexClient client(runner.socket());
    EXPECT_FALSE(client.ping().at("warm_started").as_bool());
    cold = client.explore(request);
    EXPECT_GT(cold.at("report").at("cache").at("misses").as_uint(), 0u);
    // Destructor: graceful drain + shutdown snapshot.
  }

  {
    DaemonConfig next = base_config("snap2");
    next.cache_file = cache_file;
    DaemonRunner runner(next);
    IsexClient client(runner.socket());
    EXPECT_TRUE(client.ping().at("warm_started").as_bool());
    EXPECT_GT(client.ping().at("entries").as_uint(), 0u);

    // The warm-started daemon replays the exploration without a single
    // miss, and the result survives the round-trip byte-identically.
    const Json warm = client.explore(request);
    EXPECT_GT(warm.at("report").at("cache").at("hits").as_uint(), 0u);
    EXPECT_EQ(warm.at("report").at("cache").at("misses").as_uint(), 0u);
    EXPECT_EQ(comparable(warm.at("report"), true).dump(),
              comparable(cold.at("report"), true).dump());
  }  // the second daemon's shutdown snapshot happens here
  ::unlink(cache_file.c_str());
}

TEST(ServiceDaemon, ConcurrentClientsAllGetCorrectIndependentReports) {
  DaemonConfig config = base_config("many");
  config.num_workers = 3;
  DaemonRunner runner(config);

  const std::vector<ExplorationRequest> requests = {
      small_request("adpcmdecode", 4, 2), small_request("fir", 2, 1),
      small_request("adpcmdecode", 4, 2), small_request("fir", 3, 1)};
  std::vector<std::string> baselines;
  for (const ExplorationRequest& request : requests) {
    const Explorer local(LatencyModel::standard_018um());
    baselines.push_back(comparable(local.run(request).to_json(), true).dump());
  }

  std::vector<std::string> served(requests.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      IsexClient client(runner.socket());
      served[i] = comparable(client.explore(requests[i]).at("report"), true).dump();
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(served[i], baselines[i]) << "client " << i;
  }
  // Two of the four requests are identical; if they met in flight, dedup
  // legitimately collapsed them into one run.
  const std::uint64_t jobs_run =
      runner.daemon().store().status().at("requests_served").as_uint();
  EXPECT_GE(jobs_run, 3u);
  EXPECT_LE(jobs_run, 4u);
}

}  // namespace
}  // namespace isex
