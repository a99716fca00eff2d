// Wire-protocol contract of the exploration service: strict request
// (de)serialization, version-tagged frame parsing with structured error
// codes, dedup fingerprint canonicalization, and the stable-report helper
// the byte-identity checks are built on.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

/// Asserts that parsing `line` throws a ServiceError with `code`, and
/// returns its message for substring checks.
std::string expect_request_error(const std::string& line, const std::string& code,
                                 std::string* id_out = nullptr) {
  try {
    parse_request_frame(line, id_out);
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), code) << line;
    return e.what();
  }
  ADD_FAILURE() << "no ServiceError for: " << line;
  return {};
}

ExplorationRequest sample_request() {
  ExplorationRequest request;
  request.workload = "adpcmdecode";
  request.scheme = "optimal";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.constraints.search_budget = 123;
  request.num_instructions = 5;
  request.num_threads = 2;
  request.subtree_split_depth = 3;
  request.use_cache = false;
  request.name_prefix = "svc";
  request.dfg_options.allow_rom_loads = true;
  request.area.max_area_macs = 1.5;
  request.area.num_instructions = 4;
  return request;
}

TEST(ServiceProtocol, ExplorationRequestRoundTripsExactly) {
  const ExplorationRequest request = sample_request();
  const ExplorationRequest back = exploration_request_from_json(to_json(request));
  EXPECT_EQ(to_json(back).dump(), to_json(request).dump());
  EXPECT_EQ(back.workload, "adpcmdecode");
  EXPECT_EQ(back.scheme, "optimal");
  EXPECT_EQ(back.constraints.max_inputs, 4);
  EXPECT_EQ(back.constraints.search_budget, 123u);
  EXPECT_EQ(back.num_instructions, 5);
  EXPECT_EQ(back.num_threads, 2);
  EXPECT_EQ(back.subtree_split_depth, 3);
  EXPECT_FALSE(back.use_cache);
  EXPECT_EQ(back.name_prefix, "svc");
  EXPECT_TRUE(back.dfg_options.allow_rom_loads);
  EXPECT_DOUBLE_EQ(back.area.max_area_macs, 1.5);
  EXPECT_EQ(back.area.num_instructions, 4);
}

TEST(ServiceProtocol, MultiExplorationRequestRoundTripsExactly) {
  MultiExplorationRequest request;
  request.scheme = "merge-then-select";
  request.num_instructions = 7;
  request.max_area_macs = 3.0;
  request.area_grid_macs = 0.01;
  request.constraints.max_inputs = 3;
  request.constraints.max_outputs = 1;
  {
    PortfolioWorkloadRequest w;
    w.workload = "adpcmdecode";
    w.weight = 2.0;
    request.workloads.push_back(w);
    w.workload = "sha1";
    w.weight = 1.0;
    w.dfg_options.allow_rom_loads = true;
    request.workloads.push_back(w);
  }
  const MultiExplorationRequest back =
      multi_exploration_request_from_json(to_json(request));
  EXPECT_EQ(to_json(back).dump(), to_json(request).dump());
  ASSERT_EQ(back.workloads.size(), 2u);
  EXPECT_EQ(back.workloads[0].workload, "adpcmdecode");
  EXPECT_DOUBLE_EQ(back.workloads[0].weight, 2.0);
  EXPECT_TRUE(back.workloads[1].dfg_options.allow_rom_loads);
}

TEST(ServiceProtocol, StrictParsingRejectsBadRequests) {
  // Unknown key: a client typo surfaces as a structured error, never a
  // silently defaulted exploration.
  Json j = to_json(sample_request());
  j.set("num_instrctions", 3);
  EXPECT_THROW(exploration_request_from_json(j), ServiceError);

  // Unknown workload name.
  Json unknown = to_json(sample_request());
  unknown.set("workload", std::string("definitely-not-a-workload"));
  try {
    exploration_request_from_json(unknown);
    ADD_FAILURE() << "unknown workload accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), std::string(kErrBadRequest));
    EXPECT_NE(std::string(e.what()).find("unknown workload"), std::string::npos);
  }

  // Out-of-range knobs.
  Json bad_ports = to_json(sample_request());
  bad_ports.set("constraints", [] {
    Json c = Json::object();
    c.set("max_inputs", 0);
    return c;
  }());
  EXPECT_THROW(exploration_request_from_json(bad_ports), ServiceError);

  // Graph payloads and emission options are explicitly not servable.
  Json graphs = to_json(sample_request());
  graphs.set("graphs", Json::array());
  EXPECT_THROW(exploration_request_from_json(graphs), ServiceError);
  for (const char* key : {"emission", "build_afus", "rewrite", "emit_verilog"}) {
    Json emission = to_json(sample_request());
    emission.set(key, true);
    EXPECT_THROW(exploration_request_from_json(emission), ServiceError) << key;
  }
}

TEST(ServiceProtocol, FrameParsingMapsEveryFailureToItsCode) {
  expect_request_error("this is not json", kErrBadFrame);
  expect_request_error("[1, 2, 3]", kErrBadFrame);
  expect_request_error("42", kErrBadFrame);
  // Version tag: required, and enforced.
  const std::string untagged = expect_request_error(
      R"({"id": "x", "type": "ping"})", kErrBadFrame);
  EXPECT_NE(untagged.find("isex"), std::string::npos);
  expect_request_error(R"({"isex": 4, "id": "x", "type": "ping"})",
                       kErrUnsupportedVersion);
  expect_request_error(R"({"isex": 0, "id": "x", "type": "ping"})",
                       kErrUnsupportedVersion);
  // Schema violations are bad-request, not bad-frame.
  expect_request_error(R"({"isex": 1, "id": "x", "type": "frobnicate"})",
                       kErrBadRequest);
  expect_request_error(R"({"isex": 1, "id": "x", "type": "explore"})",
                       kErrBadRequest);  // missing request body
  expect_request_error(
      R"({"isex": 1, "id": "x", "type": "ping", "request": {}})",
      kErrBadRequest);  // ping carries no body
}

/// A v3 explore frame for fir whose request adds `fields` (JSON members).
std::string explore_frame(const std::string& fields) {
  return R"({"isex": 3, "id": "x", "type": "explore", "request": {"workload": "fir", )" +
         fields + "}}";
}

/// A v3 explore-portfolio frame over fir whose request adds `fields`.
std::string portfolio_frame(const std::string& fields) {
  return R"({"isex": 3, "id": "x", "type": "explore-portfolio", )"
         R"("request": {"workloads": [{"workload": "fir"}], )" +
         fields + "}}";
}

TEST(ServiceProtocol, IntFieldsOutOfRangeAreBadRequestsNamingTheField) {
  // Narrowed unchecked, 2^32 + 1 decoded as 1 and 2^32 + 2 as 2, and a
  // num_threads of 2^32 + 1 then passed isexd's core-count bound. Values
  // below a field's minimum are refused by the same check.
  struct Case {
    const char* field;
    std::string json;
    bool portfolio;  // also a field of explore-portfolio requests
  };
  const std::vector<Case> cases = {
      {"num_instructions", R"("num_instructions": 4294967297)", true},
      {"num_instructions", R"("num_instructions": -4294967295)", true},
      {"num_instructions", R"("num_instructions": 0)", true},
      {"num_threads", R"("num_threads": 4294967297)", true},
      {"num_threads", R"("num_threads": -1)", true},
      {"subtree_split_depth", R"("subtree_split_depth": 4294967297)", true},
      {"subtree_split_depth", R"("subtree_split_depth": -1)", true},
      {"constraints.max_inputs", R"("constraints": {"max_inputs": 4294967298})", true},
      {"constraints.max_inputs", R"("constraints": {"max_inputs": 0})", true},
      {"constraints.max_outputs", R"("constraints": {"max_outputs": 4294967297})", true},
      {"constraints.max_outputs", R"("constraints": {"max_outputs": 0})", true},
      {"area.num_instructions", R"("area": {"num_instructions": 4294967297})", false},
  };
  for (const Case& c : cases) {
    std::vector<std::string> frames = {explore_frame(c.json)};
    if (c.portfolio) frames.push_back(portfolio_frame(c.json));
    for (const std::string& frame : frames) {
      const std::string message = expect_request_error(frame, kErrBadRequest);
      EXPECT_NE(message.find(c.field), std::string::npos) << message;
    }
  }
  // The version tag narrows too: 2^32 + 1 is not version 1.
  expect_request_error(R"({"isex": 4294967297, "id": "x", "type": "ping"})",
                       kErrUnsupportedVersion);
}

TEST(ServiceProtocol, IntMaxStillDecodes) {
  const RequestFrame frame = parse_request_frame(explore_frame(
      R"("num_instructions": 2147483647, "subtree_split_depth": 2147483647, )"
      R"("constraints": {"max_inputs": 2147483647, "max_outputs": 2147483647}, )"
      R"("area": {"num_instructions": 2147483647})"));
  ASSERT_TRUE(frame.single.has_value());
  const int int_max = std::numeric_limits<int>::max();
  EXPECT_EQ(frame.single->num_instructions, int_max);
  EXPECT_EQ(frame.single->subtree_split_depth, int_max);
  EXPECT_EQ(frame.single->constraints.max_inputs, int_max);
  EXPECT_EQ(frame.single->constraints.max_outputs, int_max);
  EXPECT_EQ(frame.single->area.num_instructions, int_max);
  // The daemon, not the decoder, bounds num_threads by the host's cores.
  const RequestFrame threads =
      parse_request_frame(portfolio_frame(R"("num_threads": 2147483647)"));
  ASSERT_TRUE(threads.portfolio.has_value());
  EXPECT_EQ(threads.portfolio->num_threads, int_max);
}

TEST(ServiceProtocol, UnusableAreaValuesAreBadRequests) {
  // Accepted unchecked, these failed an ISEX_CHECK inside the area scheme,
  // and isexd answered `internal` with a source path in the message.
  for (const char* json : {R"("area": {"area_grid_macs": 0})",
                           R"("area": {"area_grid_macs": -0.5})",
                           R"("area": {"max_area_macs": -1})"}) {
    const std::string message = expect_request_error(explore_frame(json), kErrBadRequest);
    EXPECT_NE(message.find("area."), std::string::npos) << message;
  }
  for (const char* json : {R"("max_area_macs": 1, "area_grid_macs": 0)",
                           R"("area_grid_macs": -0.5)"}) {
    const std::string message =
        expect_request_error(portfolio_frame(json), kErrBadRequest);
    EXPECT_NE(message.find("area_grid_macs"), std::string::npos) << message;
  }
  // Usable edges still decode: a zero area budget (selects nothing), and a
  // negative joint budget on a portfolio ("no area budget").
  EXPECT_NO_THROW(parse_request_frame(explore_frame(R"("area": {"max_area_macs": 0})")));
  EXPECT_NO_THROW(parse_request_frame(portfolio_frame(R"("max_area_macs": -1)")));
}

TEST(ServiceProtocol, CorrelationIdSurvivesParseFailures) {
  // The daemon correlates its error event with the failing frame whenever
  // the frame got far enough to carry an id.
  std::string id = "unset";
  expect_request_error(R"({"isex": 7, "id": "r42", "type": "ping"})",
                       kErrUnsupportedVersion, &id);
  EXPECT_EQ(id, "r42");

  id = "unset";
  expect_request_error(
      R"({"isex": 1, "id": "r43", "type": "explore", "request": {"workload": "nope"}})",
      kErrBadRequest, &id);
  EXPECT_EQ(id, "r43");

  // Transport garbage has no id to surface; id_out is left untouched (the
  // daemon's pre-initialized empty id then correlates the error event).
  id = "unset";
  expect_request_error("garbage", kErrBadFrame, &id);
  EXPECT_EQ(id, "unset");
}

TEST(ServiceProtocol, RequestFrameRoundTripsThroughTheWire) {
  RequestFrame frame;
  frame.id = "r7";
  frame.type = "explore";
  frame.single = sample_request();
  frame.search_budget = 9999;

  const std::string line = dump_request_frame(frame);
  const RequestFrame back = parse_request_frame(line);
  EXPECT_EQ(back.id, "r7");
  EXPECT_EQ(back.type, "explore");
  EXPECT_EQ(back.search_budget, 9999u);
  ASSERT_TRUE(back.single.has_value());
  EXPECT_EQ(to_json(*back.single).dump(), to_json(*frame.single).dump());
  EXPECT_EQ(request_fingerprint(back), request_fingerprint(frame));

  // budget 0 = unlimited: the frame-level key is omitted on the wire (the
  // constraints' own search_budget field is unrelated), parsed back as 0.
  frame.search_budget = 0;
  const std::string unbudgeted = dump_request_frame(frame);
  EXPECT_EQ(Json::parse(unbudgeted).find("search_budget"), nullptr);
  EXPECT_EQ(parse_request_frame(unbudgeted).search_budget, 0u);
}

TEST(ServiceProtocol, EventFrameRoundTripsThroughTheWire) {
  Json data = Json::object();
  data.set("code", std::string(kErrQueueFull));
  data.set("message", std::string("try later"));
  const std::string line = dump_event_frame("r9", "error", data);
  EXPECT_EQ(line.back(), '\n');

  const EventFrame back = parse_event_frame(line);
  EXPECT_EQ(back.id, "r9");
  EXPECT_EQ(back.event, "error");
  EXPECT_EQ(back.data.dump(), data.dump());

  EXPECT_THROW(parse_event_frame("nope"), ServiceError);
  EXPECT_THROW(parse_event_frame(R"({"id": "x", "event": "pong", "data": {}})"),
               ServiceError);  // untagged
  EXPECT_THROW(parse_event_frame(R"({"isex": 4, "id": "x", "event": "p", "data": {}})"),
               ServiceError);  // wrong version
  EXPECT_THROW(parse_event_frame(R"({"isex": 1, "id": "x"})"), ServiceError);
}

TEST(ServiceProtocol, FingerprintCanonicalizesTheWorkNotTheWireBytes) {
  // Same computation spelled three ways: explicit defaults, omitted
  // defaults, shuffled key order — one fingerprint.
  const std::string spellings[] = {
      R"({"isex": 1, "id": "a", "type": "explore",
          "request": {"workload": "fir", "scheme": "iterative",
                      "constraints": {"max_inputs": 4, "max_outputs": 2}}})",
      R"({"isex": 1, "id": "b", "type": "explore",
          "request": {"constraints": {"max_outputs": 2, "max_inputs": 4},
                      "workload": "fir"}})",
      R"({"isex": 1, "type": "explore",
          "request": {"workload": "fir",
                      "constraints": {"max_inputs": 4, "max_outputs": 2},
                      "num_threads": 1}})",
  };
  const std::uint64_t fp = request_fingerprint(parse_request_frame(spellings[0]));
  for (const std::string& spelling : spellings) {
    EXPECT_EQ(request_fingerprint(parse_request_frame(spelling)), fp) << spelling;
  }

  // The id never contributes (it is correlation, not work)...
  RequestFrame frame = parse_request_frame(spellings[0]);
  frame.id = "something-else";
  EXPECT_EQ(request_fingerprint(frame), fp);

  // ...but the budget does (a capped search is a different computation), and
  // so does every request knob.
  frame.search_budget = 100;
  EXPECT_NE(request_fingerprint(frame), fp);
  frame.search_budget = 0;
  frame.single->num_instructions += 1;
  EXPECT_NE(request_fingerprint(frame), fp);

  EXPECT_EQ(fingerprint_hex(fp).size(), 16u);
  EXPECT_EQ(fingerprint_hex(0x1234), "0000000000001234");
}

TEST(ServiceProtocol, StableReportJsonDropsOnlyTimings) {
  Json per_app = Json::object();
  per_app.set("speedup", 2.0);
  per_app.set("timings", Json::object());
  Json report = Json::object();
  report.set("estimated_speedup", 2.0);
  report.set("timings", Json::object());
  Json apps = Json::array();
  apps.push_back(per_app);
  report.set("workloads", apps);

  const Json stable = stable_report_json(report);
  const std::string dumped = stable.dump();
  EXPECT_EQ(dumped.find("timings"), std::string::npos);
  EXPECT_NE(dumped.find("estimated_speedup"), std::string::npos);
  EXPECT_NE(dumped.find("speedup"), std::string::npos);
}

// Literal dedup keys, recorded while an ir_text frame still fingerprinted
// its whole escaped document: how a document contributes may change, but a
// frame without one must keep its key.
TEST(RequestFingerprintPins, RegistryAndPortfolioFramesKeepTheirKeys) {
  const struct {
    const char* frame;
    const char* fingerprint;
  } pins[] = {
      {R"({"isex": 1, "id": "a", "type": "explore",
           "request": {"workload": "fir", "scheme": "iterative",
                       "constraints": {"max_inputs": 4, "max_outputs": 2}}})",
       "c4150a5d350c5508"},
      {R"({"isex": 3, "id": "b", "type": "explore", "search_budget": 50000,
           "deadline_ms": 250,
           "request": {"workload": "adpcmdecode", "scheme": "optimal",
                       "constraints": {"max_inputs": 3, "max_outputs": 1,
                                       "search_budget": 123},
                       "num_instructions": 5, "num_threads": 2,
                       "subtree_split_depth": 3, "use_cache": false,
                       "name_prefix": "svc",
                       "dfg_options": {"allow_rom_loads": true},
                       "area": {"max_area_macs": 1.5, "num_instructions": 4}}})",
       "ea7bfcdbe647a941"},
      {R"({"isex": 2, "id": "c", "type": "explore-portfolio",
           "request": {"workloads": [{"workload": "crc32", "weight": 2},
                                     {"workload": "sha1"}],
                       "scheme": "iterative", "max_area_macs": 3.5,
                       "constraints": {"max_inputs": 4, "max_outputs": 2}}})",
       "9c70699d10686509"},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(fingerprint_hex(request_fingerprint(parse_request_frame(pin.frame))),
              pin.fingerprint)
        << pin.frame;
  }
}

TEST(RequestFingerprintPins, IrTextFramesKeyOnTheirDocument) {
  const std::string text = dump_workload(find_workload("crc32"));
  RequestFrame frame;
  frame.version = 2;
  frame.id = "t1";
  frame.type = "explore";
  frame.single.emplace();
  frame.single->ir_text = text;
  const std::uint64_t fp = request_fingerprint(frame);

  // Equal documents key equal, however the frame spells them.
  RequestFrame respelled = parse_request_frame(dump_request_frame(frame));
  respelled.id = "t2";
  EXPECT_EQ(request_fingerprint(respelled), fp);

  // Documents one byte apart key apart, in place or appended.
  for (const std::size_t pos : {std::size_t{0}, text.size() / 2, text.size() - 1}) {
    RequestFrame edited = frame;
    edited.single->ir_text[pos] = edited.single->ir_text[pos] == 'x' ? 'y' : 'x';
    EXPECT_NE(request_fingerprint(edited), fp) << "byte " << pos;
  }
  RequestFrame longer = frame;
  longer.single->ir_text += ' ';
  EXPECT_NE(request_fingerprint(longer), fp);

  // A document is different work from its registry twin.
  RequestFrame twin = frame;
  twin.single->ir_text.clear();
  twin.single->workload = "crc32";
  EXPECT_NE(request_fingerprint(twin), fp);

  // No wire member stands in for the document.
  expect_request_error(
      R"({"isex": 2, "type": "explore",
          "request": {"ir_text_digest": "00000000000000ff/12"}})",
      kErrBadRequest);
  std::string spoofed = dump_request_frame(frame);
  const std::size_t body = spoofed.find(R"("request":{)");
  ASSERT_NE(body, std::string::npos) << spoofed;
  spoofed.insert(body + 11, R"("ir_text_digest":"00000000000000ff/12",)");
  expect_request_error(spoofed, kErrBadRequest);
}

}  // namespace
}  // namespace isex
