// Protocol-version negotiation introduced with v2 (ir_text payloads): v1
// frames keep working and are answered in the v1 dialect, ir_text demands a
// v2 tag, out-of-range versions are structured rejections, and the absent-
// field canonicalization keeps v1/v2 spellings of the same registry request
// dedup-equal. The daemon half runs against a real socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/explorer.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

ExplorationRequest crc_request() {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 6;
  return request;
}

// --- protocol level ---------------------------------------------------------

TEST(ServiceVersion, RequestFramesRoundTripTheirVersionTag) {
  RequestFrame frame;
  frame.id = "r1";
  frame.type = "explore";
  frame.version = 1;
  frame.single = crc_request();
  const std::string line = dump_request_frame(frame);
  EXPECT_NE(line.find("\"isex\":1"), std::string::npos) << line;

  const RequestFrame parsed = parse_request_frame(line);
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.single->workload, "crc32");
}

TEST(ServiceVersion, IrTextNeedsAVersionTwoFrame) {
  RequestFrame frame;
  frame.type = "explore";
  frame.version = 1;
  frame.single = ExplorationRequest{};
  frame.single->ir_text = dump_workload(find_workload("crc32"));
  try {
    parse_request_frame(dump_request_frame(frame));
    FAIL() << "v1 frame with ir_text unexpectedly parsed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest) << e.what();
  }
  // The identical body under a v2 tag is fine.
  frame.version = 2;
  const RequestFrame parsed = parse_request_frame(dump_request_frame(frame));
  EXPECT_EQ(parsed.version, 2);
  EXPECT_FALSE(parsed.single->ir_text.empty());
}

TEST(ServiceVersion, OutOfRangeVersionsAreStructuredRejections) {
  for (const char* line :
       {R"({"isex": 4, "id": "x", "type": "ping"})",
        R"({"isex": 0, "id": "x", "type": "ping"})"}) {
    try {
      parse_request_frame(line);
      FAIL() << line << " unexpectedly parsed";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), kErrUnsupportedVersion) << e.what();
    }
  }
}

TEST(ServiceVersion, RegistryRequestsFingerprintIdenticallyAcrossVersions) {
  // A v1 client and a v2 client asking for the same registry exploration
  // must dedup together: the version tag and the absent ir_text field are
  // both outside the work fingerprint.
  RequestFrame v1;
  v1.type = "explore";
  v1.version = 1;
  v1.single = crc_request();
  RequestFrame v2 = v1;
  v2.version = 2;
  EXPECT_EQ(request_fingerprint(v1), request_fingerprint(v2));
  // But different work — text payload vs registry name — must not collide.
  RequestFrame text = v2;
  text.single->workload.clear();
  text.single->ir_text = dump_workload(find_workload("crc32"));
  EXPECT_NE(request_fingerprint(text), request_fingerprint(v2));
}

TEST(ServiceVersion, EventFramesCarryTheRequestedDialect) {
  const std::string v1_line = dump_event_frame("id", "pong", Json::object(), 1);
  EXPECT_NE(v1_line.find("\"isex\":1"), std::string::npos) << v1_line;
  EXPECT_NO_THROW(parse_event_frame(v1_line));
  const std::string v2_line = dump_event_frame("id", "pong", Json::object(), 2);
  EXPECT_NE(v2_line.find("\"isex\":2"), std::string::npos) << v2_line;
}

// --- daemon level -----------------------------------------------------------

std::string temp_socket_path(const std::string& tag) {
  // Keep it short: AF_UNIX paths cap out near 100 bytes.
  return testing::TempDir() + "isexd-" + tag + "-" +
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

/// Reads raw event lines for one correlation id until the terminal frame,
/// returning every frame's raw `isex` tag (the parsed surface hides it).
std::vector<int> raw_event_versions(FrameReader& reader, const std::string& id,
                                    std::string* terminal) {
  std::vector<int> versions;
  while (true) {
    const std::optional<std::string> line = reader.read_frame();
    if (!line.has_value()) ADD_FAILURE() << "stream ended before the terminal event";
    if (!line.has_value()) return versions;
    const Json j = Json::parse(*line);
    if (j.at("id").as_string() != id) continue;
    versions.push_back(static_cast<int>(j.at("isex").as_int()));
    const std::string event = j.at("event").as_string();
    if (event == "report" || event == "error") {
      if (terminal != nullptr) *terminal = event;
      return versions;
    }
  }
}

TEST(ServiceVersionDaemon, VersionOneClientsGetVersionOneEvents) {
  DaemonRunner runner(base_config("v1"));

  RequestFrame frame;
  frame.id = "legacy";
  frame.type = "explore";
  frame.version = 1;
  frame.single = crc_request();

  FdHandle fd = connect_unix(runner.socket());
  ASSERT_TRUE(write_all(fd.get(), dump_request_frame(frame)));
  FrameReader reader(fd.get(), 1 << 22);
  std::string terminal;
  const std::vector<int> versions = raw_event_versions(reader, "legacy", &terminal);
  EXPECT_EQ(terminal, "report");
  ASSERT_FALSE(versions.empty());
  for (const int v : versions) EXPECT_EQ(v, 1);
}

TEST(ServiceVersionDaemon, AcceptedCarriesEveryFieldInEveryVersion) {
  // v1-v3 clients read all five accepted fields. A dispatch runs one job, so
  // `batched` and `batch_size` are constants, but they stay on the wire.
  DaemonRunner runner(base_config("acc"));
  FdHandle fd = connect_unix(runner.socket());
  FrameReader reader(fd.get(), 1 << 22);
  for (int version = kMinServiceProtocolVersion; version <= kServiceProtocolVersion;
       ++version) {
    RequestFrame frame;
    frame.id = "v" + std::to_string(version);
    frame.type = "explore";
    frame.version = version;
    frame.single = crc_request();
    ASSERT_TRUE(write_all(fd.get(), dump_request_frame(frame)));

    std::optional<Json> accepted;
    while (true) {
      const std::optional<std::string> line = reader.read_frame();
      ASSERT_TRUE(line.has_value()) << "stream ended before the terminal event";
      const EventFrame event = parse_event_frame(*line);
      if (event.event == "accepted") accepted = event.data;
      if (event.event == "report" || event.event == "error") break;
    }
    ASSERT_TRUE(accepted.has_value()) << frame.id;
    std::vector<std::string> keys;
    for (const auto& [key, value] : accepted->as_object()) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, (std::vector<std::string>{"batch_size", "batched", "deduped",
                                              "fingerprint", "queue_depth"}))
        << frame.id;
    EXPECT_FALSE(accepted->at("batched").as_bool()) << frame.id;
    EXPECT_EQ(accepted->at("batch_size").as_uint(), 1u) << frame.id;
    EXPECT_FALSE(accepted->at("deduped").as_bool()) << frame.id;
  }
}

TEST(ServiceVersionDaemon, UnsupportedVersionGetsAStructuredError) {
  DaemonRunner runner(base_config("v4"));
  FdHandle fd = connect_unix(runner.socket());
  ASSERT_TRUE(write_all(fd.get(), R"({"isex": 4, "id": "future", "type": "ping"})"
                                  "\n"));
  FrameReader reader(fd.get(), 1 << 22);
  const std::optional<std::string> line = reader.read_frame();
  ASSERT_TRUE(line.has_value());
  const EventFrame event = parse_event_frame(*line);
  EXPECT_EQ(event.id, "future");
  EXPECT_EQ(event.event, "error");
  EXPECT_EQ(event.data.at("code").as_string(), kErrUnsupportedVersion);
}

TEST(ServiceVersionDaemon, VersionOneIrTextIsABadRequest) {
  DaemonRunner runner(base_config("v1ir"));
  RequestFrame frame;
  frame.id = "mix";
  frame.type = "explore";
  frame.version = 1;
  frame.single = ExplorationRequest{};
  frame.single->ir_text = dump_workload(find_workload("crc32"));

  FdHandle fd = connect_unix(runner.socket());
  ASSERT_TRUE(write_all(fd.get(), dump_request_frame(frame)));
  FrameReader reader(fd.get(), 1 << 22);
  const std::optional<std::string> line = reader.read_frame();
  ASSERT_TRUE(line.has_value());
  const EventFrame event = parse_event_frame(*line);
  EXPECT_EQ(event.event, "error");
  EXPECT_EQ(event.data.at("code").as_string(), kErrBadRequest);
  // The rejection is rendered in the sender's dialect.
  EXPECT_EQ(Json::parse(*line).at("isex").as_int(), 1);
}

TEST(ServiceVersionDaemon, IrTextRequestsServeGraphPayloadsEndToEnd) {
  DaemonRunner runner(base_config("irtext"));

  ExplorationRequest by_text = crc_request();
  by_text.workload.clear();
  by_text.ir_text = dump_workload(find_workload("crc32"));

  IsexClient client(runner.socket());
  const Json payload = client.explore(by_text);
  const std::string served = stable_report_json(payload.at("report")).dump();

  // The served report must be byte-identical to an in-process run of the
  // builder twin (both cold, so even the cache deltas agree).
  const Explorer local;
  const std::string in_process =
      stable_report_json(local.run(crc_request()).to_json()).dump();
  EXPECT_EQ(served, in_process);
}

TEST(ServiceVersionDaemon, RegistryStrictnessRejectsPathWorkloads) {
  // The registry dispatch that makes `--ir FILE` work locally must NOT leak
  // into the service: a daemon never opens client-supplied host paths.
  DaemonRunner runner(base_config("paths"));
  ExplorationRequest request = crc_request();
  request.workload = "/tmp/evil.isex";
  IsexClient client(runner.socket());
  try {
    client.explore(request);
    FAIL() << "path workload unexpectedly accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), kErrBadRequest) << e.what();
  }
}

}  // namespace
}  // namespace isex
