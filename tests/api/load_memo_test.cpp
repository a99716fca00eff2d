// The load memo: an ir_text document the cache has loaded before runs by its
// extraction key, loading again only when the run reads its module or
// misses the extraction cache. Every report must be byte-identical, timings
// aside, to the one a run that loads the document gives against the same
// cache state (`loaded_run`, the path every ir_text request took before).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/thread_cpu.hpp"
#include "api/explorer.hpp"
#include "service/protocol.hpp"
#include "text/corpus_gen.hpp"
#include "text/lexer.hpp"
#include "text/workload_file.hpp"

namespace isex {
namespace {

const char* const kSchemes[] = {"iterative", "optimal", "optimal-dp",
                                "clubbing",  "maxmiso", "area"};

std::string corpus_text(const std::string& file) {
  std::ifstream in(std::string(ISEX_SOURCE_DIR) + "/tests/corpus/" + file, std::ios::binary);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A 4096-op corpus_gen kernel, the size of isexd's large text requests.
const std::string& large_text() {
  static const std::string text = [] {
    CorpusGenConfig config;
    config.seed = 1001;
    config.num_ops = 4096;
    return generate_workload_text(config);
  }();
  return text;
}

ExplorationRequest text_request(const std::string& text, const std::string& scheme) {
  ExplorationRequest request;
  request.ir_text = text;
  request.scheme = scheme;
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 4;
  return request;
}

/// `request` run by loading its document and running the loaded workload.
ExplorationReport loaded_run(const Explorer& explorer, const ExplorationRequest& request) {
  Workload loaded = load_workload_string(request.ir_text);
  return explorer.run(loaded, request);
}

std::string stable(const ExplorationReport& report) {
  return stable_report_json(report.to_json()).dump();
}

TEST(LoadMemo, RepeatedDocumentsReportAsLoadedOnesForEveryScheme) {
  const std::string crc32 = corpus_text("crc32.isex");
  for (const std::string* text : {&crc32, &large_text()}) {
    const bool large = text == &large_text();
    for (const char* scheme : kSchemes) {
      SCOPED_TRACE(std::string(large ? "4096-op kernel, " : "crc32, ") + scheme);
      ExplorationRequest request = text_request(*text, scheme);
      // The large kernel's one block is far past an unbounded search.
      if (large) request.constraints.search_budget = 2000;
      const Explorer memo;
      const Explorer loading;
      const ExplorationReport first = memo.run(request);
      const ExplorationReport repeat = memo.run(request);
      EXPECT_EQ(memo.cache().num_text_entries(), 1u);
      EXPECT_EQ(stable(first), stable(loaded_run(loading, request)));
      EXPECT_EQ(stable(repeat), stable(loaded_run(loading, request)));
      EXPECT_TRUE(first.timings.load_ms.has_value());
      EXPECT_TRUE(repeat.timings.load_ms.has_value());
      if (large) continue;
      // The registry twin reports the same bytes, cold and warm.
      ExplorationRequest by_name = request;
      by_name.ir_text.clear();
      by_name.workload = "crc32";
      const Explorer registry;
      EXPECT_EQ(stable(first), stable(registry.run(by_name)));
      EXPECT_EQ(stable(repeat), stable(registry.run(by_name)));
    }
  }
}

TEST(LoadMemo, ARepeatedDocumentSkipsTheLoad) {
  // Extraction and identification are warm before the document is sent, so
  // the first send costs its load and the second only the digest. Each time
  // is the best of three in thread CPU, on a fresh explorer each round.
  const ExplorationRequest request = text_request(large_text(), "maxmiso");
  double first_ms = std::numeric_limits<double>::infinity();
  double repeat_ms = first_ms;
  for (int round = 0; round < 3; ++round) {
    const Explorer explorer;
    Workload warm = load_workload_string(large_text());
    explorer.run(warm, request);
    const std::string expected = stable(explorer.run(warm, request));
    double start = thread_cpu_ms();
    const ExplorationReport first = explorer.run(request);
    first_ms = std::min(first_ms, thread_cpu_ms() - start);
    start = thread_cpu_ms();
    const ExplorationReport repeat = explorer.run(request);
    repeat_ms = std::min(repeat_ms, thread_cpu_ms() - start);
    EXPECT_EQ(stable(first), expected);
    EXPECT_EQ(stable(repeat), expected);
  }
  EXPECT_LE(repeat_ms, first_ms / 3) << "first send " << first_ms << " ms, repeat " << repeat_ms
                                     << " ms";
}

TEST(LoadMemo, HitsThatMustLoadStillReportAsLoadedOnes) {
  // One extraction entry and one memo entry: a document's second DfgOptions
  // variant finds the document in the memo but misses the extraction, so
  // the run loads it; the other kernel's requests evict both entries.
  const ResultCacheConfig tiny{.max_dfg_entries = 1};
  const Explorer memo(LatencyModel::standard_018um(), nullptr, tiny);
  const Explorer loading(LatencyModel::standard_018um(), nullptr, tiny);
  const std::string texts[] = {corpus_text("crc32.isex"), corpus_text("gen100.isex")};
  for (int round = 0; round < 2; ++round) {
    for (const std::string& text : texts) {
      for (const bool rom : {false, true}) {
        ExplorationRequest request = text_request(text, "iterative");
        request.dfg_options.allow_rom_loads = rom;
        const ExplorationReport served = memo.run(request);
        EXPECT_EQ(stable(served), stable(loaded_run(loading, request)));
        EXPECT_EQ(served.cache.counters.dfg_misses, 1u);
        EXPECT_EQ(memo.cache().num_text_entries(), 1u);
      }
    }
  }
}

TEST(LoadMemo, EmissionRewritesAndUncachedRunsOfAKnownDocumentMatch) {
  const Explorer memo;
  const Explorer loading;
  const ExplorationRequest plain = text_request(corpus_text("crc32.isex"), "iterative");
  EXPECT_EQ(stable(memo.run(plain)), stable(loaded_run(loading, plain)));

  std::vector<ExplorationRequest> variants(4, plain);
  variants[0].emission.targets = {"verilog", "c-intrinsics", "dot", "manifest"};
  variants[1].emission.build_afus = true;
  variants[2].emission.verify_rewrites = true;
  variants[3].use_cache = false;
  for (const ExplorationRequest& request : variants) {
    const ExplorationReport served = memo.run(request);
    EXPECT_EQ(stable(served), stable(loaded_run(loading, request)));
    EXPECT_TRUE(served.timings.load_ms.has_value());
    // A rewrite mutates only the run's own instance of the document.
    EXPECT_EQ(stable(memo.run(plain)), stable(loaded_run(loading, plain)));
  }
  EXPECT_EQ(memo.cache().num_text_entries(), 1u);

  // use_cache = false neither reads nor writes the memo.
  const Explorer uncached;
  EXPECT_EQ(stable(uncached.run(variants[3])), stable(loaded_run(loading, variants[3])));
  EXPECT_EQ(uncached.cache().num_text_entries(), 0u);
}

TEST(LoadMemo, AMalformedDocumentFailsAlikeOnEverySend) {
  std::string text = corpus_text("crc32.isex");
  const std::size_t op = text.find(" = xor ");
  ASSERT_NE(op, std::string::npos);
  text.replace(op, 7, " = xyzzy ");
  std::optional<ParseError> expected;
  try {
    load_workload_string(text);
  } catch (const ParseError& e) {
    expected = e;
  }
  ASSERT_TRUE(expected.has_value());

  const Explorer memo;
  for (int send = 0; send < 3; ++send) {
    try {
      memo.run(text_request(text, "iterative"));
      ADD_FAILURE() << "send " << send << " did not fail";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), expected->line());
      EXPECT_EQ(e.col(), expected->col());
      EXPECT_STREQ(e.what(), expected->what());
    }
    EXPECT_EQ(memo.cache().num_text_entries(), 0u);
  }
}

TEST(LoadMemo, ARespelledDocumentSharesTheExtraction) {
  const std::string text = corpus_text("crc32.isex");
  const Explorer memo;
  memo.run(text_request(text, "iterative"));
  const ExplorationReport respelled =
      memo.run(text_request(text + "; the same kernel, spelled differently\n", "iterative"));
  EXPECT_EQ(respelled.cache.counters.dfg_hits, 1u);
  EXPECT_EQ(respelled.cache.counters.dfg_misses, 0u);
  EXPECT_EQ(stable(respelled), stable(memo.run(text_request(text, "iterative"))));
  EXPECT_EQ(memo.cache().num_text_entries(), 2u);
}

TEST(LoadMemo, ConcurrentSendsOfANewDocumentAgree) {
  // Extraction and identification are warm, so every send is all hits and
  // the whole report is comparable; each document is new to the load memo,
  // so the two threads race on its lookup and store.
  const std::string text = corpus_text("gen100.isex");
  const Explorer shared;
  Workload warm = load_workload_string(text);
  shared.run(warm, text_request(text, "iterative"));
  const std::string expected = stable(shared.run(warm, text_request(text, "iterative")));

  constexpr int kDocuments = 8;
  for (int k = 0; k < kDocuments; ++k) {
    const ExplorationRequest request =
        text_request(text + "; variant " + std::to_string(k) + "\n", "iterative");
    std::string reports[2];
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < 2) std::this_thread::yield();
        reports[t] = stable(shared.run(request));
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(reports[0], expected) << "document " << k;
    EXPECT_EQ(reports[1], expected) << "document " << k;
  }
  EXPECT_EQ(shared.cache().num_text_entries(), static_cast<std::size_t>(kDocuments));
}

}  // namespace
}  // namespace isex
