// Exploration parity between a builder-constructed workload and its textual
// twin: the same kernel, whether produced by the C++ builders or parsed
// back from the canonical text, must drive the pipeline to a byte-identical
// ExplorationReport (modulo wall-clock timings) — cold, warm against a
// shared cache, and through the ir_text request path the service uses.
#include <gtest/gtest.h>

#include <fstream>

#include "api/explorer.hpp"
#include "service/protocol.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

ExplorationRequest small_request() {
  ExplorationRequest request;
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 8;
  return request;
}

std::string stable(const ExplorationReport& report) {
  return stable_report_json(report.to_json()).dump();
}

TEST(TextParity, ColdRunsProduceByteIdenticalReports) {
  Workload builder = find_workload("crc32");
  Workload text = load_workload_string(dump_workload(builder));
  ASSERT_EQ(text.content_fingerprint(), builder.content_fingerprint());

  const ExplorationRequest request = small_request();
  const Explorer cold_a;
  const Explorer cold_b;
  const std::string builder_report = stable(cold_a.run(builder, request));
  const std::string text_report = stable(cold_b.run(text, request));
  // Both explorers start cold, so even the cache-counter deltas agree: the
  // reports are byte-identical in full.
  EXPECT_EQ(text_report, builder_report);
}

TEST(TextParity, TextTwinWarmsFromTheBuilderCacheEntries) {
  Workload builder = find_workload("crc32");
  Workload text = load_workload_string(dump_workload(builder));

  const ExplorationRequest request = small_request();
  const Explorer shared;
  const ExplorationReport first = shared.run(builder, request);
  const CacheCounters after_builder = shared.cache().counters();
  const ExplorationReport second = shared.run(text, request);
  const CacheCounters after_text = shared.cache().counters();

  // Equal content fingerprints route the twins into the same extraction and
  // identification entries: the text run is all hits, no new misses.
  EXPECT_GT(after_text.dfg_hits, after_builder.dfg_hits);
  EXPECT_EQ(after_text.dfg_misses, after_builder.dfg_misses);
  EXPECT_GT(after_text.hits, after_builder.hits);
  EXPECT_EQ(after_text.misses, after_builder.misses);

  // And the selected instructions are identical; only the per-request cache
  // delta legitimately differs between the cold and the warm run.
  const Json a = stable_report_json(first.to_json());
  const Json b = stable_report_json(second.to_json());
  Json fa = Json::object();
  Json fb = Json::object();
  for (const auto& [key, value] : a.as_object()) {
    if (key != "cache") fa.set(key, value);
  }
  for (const auto& [key, value] : b.as_object()) {
    if (key != "cache") fb.set(key, value);
  }
  EXPECT_EQ(fb.dump(), fa.dump());
}

TEST(TextParity, IrTextRequestsMatchRegistryRequests) {
  const std::string document = dump_workload(find_workload("crc32"));

  ExplorationRequest by_name = small_request();
  by_name.workload = "crc32";
  ExplorationRequest by_text = small_request();
  by_text.ir_text = document;

  const Explorer cold_a;
  const Explorer cold_b;
  EXPECT_EQ(stable(cold_b.run(by_text)), stable(cold_a.run(by_name)));
}

TEST(TextParity, IrTextReportsTimeTheirLoadAndRegistryReportsDoNot) {
  ExplorationRequest by_name = small_request();
  by_name.workload = "crc32";
  ExplorationRequest by_text = small_request();
  by_text.ir_text = dump_workload(find_workload("crc32"));

  const Explorer explorer;
  const ExplorationReport text_report = explorer.run(by_text);
  ASSERT_TRUE(text_report.timings.load_ms.has_value());
  EXPECT_GT(*text_report.timings.load_ms, 0.0);
  const ExplorationReport name_report = explorer.run(by_name);
  EXPECT_FALSE(name_report.timings.load_ms.has_value());
  EXPECT_EQ(name_report.to_json().at("timings").find("load_ms"), nullptr);

  // The load runs before the report's clock starts, so total_ms leaves it out.
  const Json json = text_report.to_json();
  EXPECT_EQ(json.at("timings").at("load_ms").as_double(), *text_report.timings.load_ms);
  const ExplorationReport back = ExplorationReport::from_json(json);
  EXPECT_EQ(back.timings.load_ms, text_report.timings.load_ms);
  EXPECT_EQ(back.to_json().dump(), json.dump());
  EXPECT_FALSE(ExplorationReport::from_json(name_report.to_json()).timings.load_ms.has_value());
}

TEST(TextParity, IrTextAndWorkloadAreMutuallyExclusive) {
  ExplorationRequest request = small_request();
  request.workload = "crc32";
  request.ir_text = dump_workload(find_workload("crc32"));
  const Explorer explorer;
  EXPECT_THROW(explorer.run(request), Error);
}

TEST(TextParity, PathNamesLoadThroughTheRegistryDispatch) {
  const std::string path = testing::TempDir() + "parity-crc32.isex";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << dump_workload(find_workload("crc32"));
  }
  Workload from_path = find_workload(path);
  // The workload keeps its declared name — reports never leak host paths.
  EXPECT_EQ(from_path.name(), "crc32");
  EXPECT_EQ(from_path.content_fingerprint(),
            find_workload("crc32").content_fingerprint());
}

}  // namespace
}  // namespace isex
