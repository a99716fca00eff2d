// The ResultCache: a warm run must be byte-identical to a cold one across
// every registered scheme (the acceptance bar for introducing memoization —
// a wrong hit would silently corrupt every downstream figure), counters must
// account each lookup, LRU bounds must hold, and the JSON persistence must
// round-trip into warm starts.
#include "cache/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "api/explorer.hpp"
#include "dfg/random_dag.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Constraints cons(int nin, int nout) {
  Constraints c;
  c.max_inputs = nin;
  c.max_outputs = nout;
  return c;
}

std::vector<Dfg> random_blocks(std::uint64_t seed, int count, int num_ops) {
  std::vector<Dfg> blocks;
  for (int b = 0; b < count; ++b) {
    RandomDagConfig cfg;
    cfg.num_ops = num_ops;
    cfg.seed = seed * 977 + static_cast<std::uint64_t>(b);
    Dfg g = random_dag(cfg);
    g.set_exec_freq(1.0 + static_cast<double>(b) * 2);
    blocks.push_back(std::move(g));
  }
  return blocks;
}

void expect_identical(const SelectionResult& a, const SelectionResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.cuts.size(), b.cuts.size()) << label;
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i].block_index, b.cuts[i].block_index) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].cut, b.cuts[i].cut) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].merit, b.cuts[i].merit) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.inputs, b.cuts[i].metrics.inputs) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.outputs, b.cuts[i].metrics.outputs) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.hw_cycles, b.cuts[i].metrics.hw_cycles) << label << " cut " << i;
  }
  EXPECT_EQ(a.total_merit, b.total_merit) << label;
  EXPECT_EQ(a.identification_calls, b.identification_calls) << label;
  EXPECT_EQ(a.stats.cuts_considered, b.stats.cuts_considered) << label;
  EXPECT_EQ(a.stats.passed_checks, b.stats.passed_checks) << label;
  EXPECT_EQ(a.stats.failed_output, b.stats.failed_output) << label;
  EXPECT_EQ(a.stats.failed_convex, b.stats.failed_convex) << label;
  EXPECT_EQ(a.stats.best_updates, b.stats.best_updates) << label;
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted) << label;
}

const std::vector<std::string> kAllSchemes = {"iterative", "optimal",  "optimal-dp",
                                              "clubbing",  "maxmiso", "area"};
// Schemes whose identification runs through the memo table (the baselines
// use their own non-enumerative identification).
const std::vector<std::string> kMemoizedSchemes = {"iterative", "optimal", "optimal-dp",
                                                   "area"};

// --- identification memo -----------------------------------------------------

TEST(ResultCache, SingleCutHitReplaysTheColdSearchByteForByte) {
  const std::vector<Dfg> blocks = random_blocks(3, 2, 12);
  ResultCache cache;
  const Constraints c = cons(4, 2);
  const SingleCutResult cold = cache.single_cut(blocks[0], kLat, c);
  const SingleCutResult warm = cache.single_cut(blocks[0], kLat, c);
  const SingleCutResult reference = find_best_cut(blocks[0], kLat, c);

  for (const SingleCutResult* r : {&cold, &warm}) {
    EXPECT_EQ(r->cut, reference.cut);
    EXPECT_EQ(r->merit, reference.merit);
    EXPECT_EQ(r->metrics.inputs, reference.metrics.inputs);
    EXPECT_EQ(r->stats.cuts_considered, reference.stats.cuts_considered);
    EXPECT_EQ(r->stats.best_updates, reference.stats.best_updates);
  }
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.num_entries(), 1u);
}

TEST(ResultCache, MultiCutHitReplaysTheColdSearchByteForByte) {
  const std::vector<Dfg> blocks = random_blocks(5, 1, 10);
  ResultCache cache;
  const Constraints c = cons(3, 1);
  const MultiCutResult cold = cache.multi_cut(blocks[0], kLat, c, 2);
  const MultiCutResult warm = cache.multi_cut(blocks[0], kLat, c, 2);
  const MultiCutResult reference = find_best_cuts(blocks[0], kLat, c, 2);
  for (const MultiCutResult* r : {&cold, &warm}) {
    ASSERT_EQ(r->cuts.size(), reference.cuts.size());
    for (std::size_t i = 0; i < r->cuts.size(); ++i) EXPECT_EQ(r->cuts[i], reference.cuts[i]);
    EXPECT_EQ(r->total_merit, reference.total_merit);
    EXPECT_EQ(r->stats.cuts_considered, reference.stats.cuts_considered);
  }
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(ResultCache, KeysSeparateConstraintsLatencyAndCutCount) {
  const std::vector<Dfg> blocks = random_blocks(7, 1, 10);
  ResultCache cache;
  cache.single_cut(blocks[0], kLat, cons(4, 2));
  cache.single_cut(blocks[0], kLat, cons(4, 1));          // different constraints
  cache.multi_cut(blocks[0], kLat, cons(4, 2), 1);        // multi m=1 != single
  LatencyModel slow_add = LatencyModel::standard_018um();
  slow_add.set_cost(Opcode::add, OpCost{3, 0.27, 0.030});
  cache.single_cut(blocks[0], slow_add, cons(4, 2));      // different model
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 4u);
  EXPECT_EQ(cache.num_entries(), 4u);
}

TEST(ResultCache, LruEvictionBoundsTheTable) {
  ResultCacheConfig config;
  config.max_entries = 2;
  ResultCache cache(config);
  const std::vector<Dfg> blocks = random_blocks(11, 3, 9);
  const Constraints c = cons(3, 2);
  cache.single_cut(blocks[0], kLat, c);
  cache.single_cut(blocks[1], kLat, c);
  cache.single_cut(blocks[0], kLat, c);  // hit; block 0 becomes most recent
  cache.single_cut(blocks[2], kLat, c);  // evicts block 1 (least recent)
  EXPECT_EQ(cache.num_entries(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  cache.single_cut(blocks[0], kLat, c);  // still cached
  EXPECT_EQ(cache.counters().hits, 2u);
  cache.single_cut(blocks[1], kLat, c);  // was evicted: a fresh miss
  EXPECT_EQ(cache.counters().misses, 4u);
}

TEST(ResultCache, ClearDropsEntriesButKeepsLifetimeCounters) {
  ResultCache cache;
  const std::vector<Dfg> blocks = random_blocks(13, 1, 9);
  cache.single_cut(blocks[0], kLat, cons(4, 2));
  cache.clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.counters().misses, 1u);
  cache.single_cut(blocks[0], kLat, cons(4, 2));
  EXPECT_EQ(cache.counters().misses, 2u);
}

// --- persistence -------------------------------------------------------------

TEST(ResultCache, JsonPersistenceRoundTripsIntoWarmStarts) {
  const std::vector<Dfg> blocks = random_blocks(17, 3, 11);
  const Constraints c = cons(4, 2);
  ResultCache cache;
  std::vector<SingleCutResult> cold;
  for (const Dfg& g : blocks) cold.push_back(cache.single_cut(g, kLat, c));
  cold.push_back(cache.single_cut(blocks[0], kLat, cons(2, 1)));
  const MultiCutResult cold_multi = cache.multi_cut(blocks[1], kLat, c, 2);

  const std::string path = testing::TempDir() + "isex_cache_roundtrip.json";
  cache.save_file(path);

  ResultCache warm;
  ASSERT_TRUE(warm.load_file(path));
  EXPECT_EQ(warm.num_entries(), cache.num_entries());

  // Every request served from the loaded table, byte-identical to cold.
  std::vector<SingleCutResult> replayed;
  for (const Dfg& g : blocks) replayed.push_back(warm.single_cut(g, kLat, c));
  replayed.push_back(warm.single_cut(blocks[0], kLat, cons(2, 1)));
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(replayed[i].cut, cold[i].cut) << i;
    EXPECT_EQ(replayed[i].merit, cold[i].merit) << i;
    EXPECT_EQ(replayed[i].metrics.hw_critical, cold[i].metrics.hw_critical) << i;
    EXPECT_EQ(replayed[i].stats.cuts_considered, cold[i].stats.cuts_considered) << i;
    EXPECT_EQ(replayed[i].stats.pruned_bound, cold[i].stats.pruned_bound) << i;
  }
  const MultiCutResult warm_multi = warm.multi_cut(blocks[1], kLat, c, 2);
  ASSERT_EQ(warm_multi.cuts.size(), cold_multi.cuts.size());
  EXPECT_EQ(warm_multi.total_merit, cold_multi.total_merit);
  EXPECT_EQ(warm.counters().hits, cold.size() + 1);
  EXPECT_EQ(warm.counters().misses, 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LoadFileReturnsFalseOnMissingFile) {
  ResultCache cache;
  EXPECT_FALSE(cache.load_file(testing::TempDir() + "isex_no_such_cache.json"));
  EXPECT_EQ(cache.num_entries(), 0u);
}

TEST(ResultCache, LoadFileThrowsOnTruncatedFileInsteadOfSilentlyColdStarting) {
  // Regression for the constraint_sweep --cache contract: a warm-start file
  // cut short mid-write (disk full, interrupted copy) must fail the load
  // loudly — callers decide whether to abort or to warn and start cold —
  // and must leave the table empty rather than partially merged.
  const std::vector<Dfg> blocks = random_blocks(29, 2, 10);
  ResultCache cache;
  for (const Dfg& g : blocks) cache.single_cut(g, kLat, cons(4, 2));
  const std::string path = testing::TempDir() + "isex_cache_truncated.json";
  cache.save_file(path);

  std::string full;
  {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    full = text.str();
  }
  ASSERT_GT(full.size(), 10u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << full.substr(0, full.size() / 2);  // chop mid-entry
  }

  ResultCache warm;
  try {
    warm.load_file(path);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("json"), std::string::npos) << e.what();
  }
  EXPECT_EQ(warm.num_entries(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, SaveFileStaysLoadableUnderConcurrentWritersAndReaders) {
  // Regression: save_file used to stage through the FIXED name "<path>.tmp",
  // so two concurrent savers (several daemons or a daemon's idle snapshot
  // racing its shutdown snapshot) truncated each other's half-written
  // staging file and renamed garbage into place. Unique per-writer staging
  // names plus the atomic rename mean every observer of <path> — including
  // loads racing the writers — sees some complete snapshot.
  const std::vector<Dfg> blocks = random_blocks(31, 3, 10);
  ResultCache cache;
  for (const Dfg& g : blocks) cache.single_cut(g, kLat, cons(4, 2));
  const std::string path = testing::TempDir() + "isex_cache_concurrent_save.json";
  cache.save_file(path);  // loaders below never race a missing file

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) cache.save_file(path);
    });
  }
  std::vector<std::size_t> loaded_entries(2, 0);
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        ResultCache reader;
        ASSERT_TRUE(reader.load_file(path));  // a torn file would throw here
        loaded_entries[static_cast<std::size_t>(t)] = reader.num_entries();
      }
    });
  }
  for (auto& w : workers) w.join();

  ResultCache warm;
  ASSERT_TRUE(warm.load_file(path));
  EXPECT_EQ(warm.num_entries(), cache.num_entries());
  EXPECT_EQ(loaded_entries[0], cache.num_entries());
  EXPECT_EQ(loaded_entries[1], cache.num_entries());
  std::remove(path.c_str());
}

TEST(ResultCache, StaleStagingFileFromAKilledWriterIsHarmless) {
  // A saver killed mid-write leaves its private "<path>.tmp.<pid>.<seq>"
  // behind (and pre-fix writers left "<path>.tmp"). Neither may break the
  // next save or be mistaken for the snapshot by a load.
  const std::vector<Dfg> blocks = random_blocks(37, 2, 10);
  ResultCache cache;
  for (const Dfg& g : blocks) cache.single_cut(g, kLat, cons(4, 2));
  const std::string path = testing::TempDir() + "isex_cache_stale_tmp.json";
  const std::string stale_new = path + ".tmp.99999.7";
  const std::string stale_old = path + ".tmp";
  for (const std::string& stale : {stale_new, stale_old}) {
    std::ofstream out(stale);
    out << "{ half a snapsh";  // killed mid-write
  }

  cache.save_file(path);
  ResultCache warm;
  ASSERT_TRUE(warm.load_file(path));
  EXPECT_EQ(warm.num_entries(), cache.num_entries());

  std::remove(path.c_str());
  std::remove(stale_new.c_str());
  std::remove(stale_old.c_str());
}

TEST(ResultCache, MergeJsonRejectsMalformedPayloads) {
  ResultCache cache;
  EXPECT_THROW(cache.merge_json(Json::parse("{}")), Error);
  EXPECT_THROW(cache.merge_json(Json::parse("{\"version\": 2, \"entries\": []}")), Error);
  // A file from a different identification-algorithm version must be
  // rejected loudly, never replayed.
  EXPECT_THROW(cache.merge_json(Json::parse("{\"version\": 1, \"algorithm\": 999, "
                                            "\"entries\": []}")),
               Error);
  EXPECT_THROW(cache.merge_json(Json::parse(
                   "{\"version\": 1, \"algorithm\": " +
                   std::to_string(kIdentificationAlgorithmVersion) +
                   ", \"entries\": [{\"structural\": \"zz\"}]}")),
               Error);
  // Failed merges leave the table untouched (no partial loads).
  EXPECT_EQ(cache.num_entries(), 0u);
}

// --- Explorer integration ----------------------------------------------------

TEST(ExplorerCache, WarmRunsAreByteIdenticalToCacheDisabledRunsForEveryScheme) {
  const std::vector<Dfg> blocks = random_blocks(23, 4, 11);
  const Explorer explorer(kLat);
  for (const std::string& scheme : kAllSchemes) {
    ExplorationRequest request;
    request.scheme = scheme;
    request.constraints = cons(3, 2);
    request.num_instructions = 4;

    request.use_cache = false;
    const ExplorationReport disabled = explorer.run_blocks(blocks, request);
    EXPECT_FALSE(disabled.cache.enabled) << scheme;
    EXPECT_EQ(disabled.cache.counters.hits + disabled.cache.counters.misses, 0u) << scheme;

    request.use_cache = true;
    const ExplorationReport cold = explorer.run_blocks(blocks, request);
    const ExplorationReport warm = explorer.run_blocks(blocks, request);

    expect_identical(cold.selection, disabled.selection, scheme + " cold");
    expect_identical(warm.selection, disabled.selection, scheme + " warm");
    EXPECT_EQ(warm.total_merit, disabled.total_merit) << scheme;
    EXPECT_EQ(warm.stats.cuts_considered, disabled.stats.cuts_considered) << scheme;
  }
}

TEST(ExplorerCache, MemoizedSchemesReportHitsOnTheWarmRun) {
  const std::vector<Dfg> blocks = random_blocks(29, 3, 11);
  for (const std::string& scheme : kMemoizedSchemes) {
    const Explorer explorer(kLat);  // fresh cache per scheme
    ExplorationRequest request;
    request.scheme = scheme;
    request.constraints = cons(3, 2);
    request.num_instructions = 3;
    const ExplorationReport cold = explorer.run_blocks(blocks, request);
    EXPECT_EQ(cold.cache.counters.hits, 0u) << scheme;
    EXPECT_GT(cold.cache.counters.misses, 0u) << scheme;
    const ExplorationReport warm = explorer.run_blocks(blocks, request);
    EXPECT_GT(warm.cache.counters.hits, 0u) << scheme;
    EXPECT_EQ(warm.cache.counters.misses, 0u) << scheme;
  }
}

TEST(ExplorerCache, ConstraintSweepOnRealWorkloadMatchesCacheDisabledSweep) {
  // The acceptance bar: a warm-cache sweep reports hits and its selections
  // are byte-identical to a cache-disabled sweep.
  Workload w = find_workload("crc32");
  const Explorer explorer(kLat);
  std::uint64_t total_hits = 0;
  std::uint64_t total_dfg_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {  // second pass = fully warm
    for (const int nin : {2, 4}) {
      for (const int nout : {1, 2}) {
        ExplorationRequest request;
        request.scheme = "iterative";
        request.constraints = cons(nin, nout);
        request.num_instructions = 4;

        const ExplorationReport cached = explorer.run(w, request);
        request.use_cache = false;
        const ExplorationReport plain = explorer.run(w, request);

        expect_identical(cached.selection, plain.selection,
                         "crc32 " + std::to_string(nin) + "/" + std::to_string(nout));
        EXPECT_EQ(cached.base_cycles, plain.base_cycles);
        EXPECT_EQ(cached.num_blocks, plain.num_blocks);
        total_hits += cached.cache.counters.hits;
        total_dfg_hits += cached.cache.counters.dfg_hits;
      }
    }
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(total_dfg_hits, 0u);
}

TEST(ExplorerCache, ExtractionCacheSkipsReprofilingWithinOneExplorer) {
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.workload = "gsm";
  request.scheme = "maxmiso";
  request.num_instructions = 2;
  const ExplorationReport first = explorer.run(request);
  EXPECT_EQ(first.cache.counters.dfg_hits, 0u);
  EXPECT_EQ(first.cache.counters.dfg_misses, 1u);
  const ExplorationReport second = explorer.run(request);
  EXPECT_EQ(second.cache.counters.dfg_hits, 1u);
  EXPECT_EQ(second.cache.counters.dfg_misses, 0u);
  EXPECT_EQ(second.base_cycles, first.base_cycles);
  EXPECT_EQ(second.num_blocks, first.num_blocks);
  EXPECT_EQ(second.total_merit, first.total_merit);
}

TEST(ExplorerCache, RewriteBypassesTheExtractionCacheButKeepsPristineEntries) {
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.workload = "gsm";
  request.scheme = "iterative";
  request.num_instructions = 2;
  const ExplorationReport plain = explorer.run(request);
  EXPECT_EQ(plain.cache.counters.dfg_misses, 1u);

  // The rewrite works on its own fresh instance: it must neither consume
  // nor feed the extraction cache.
  request.emission.verify_rewrites = true;
  const ExplorationReport rewritten = explorer.run(request);
  EXPECT_TRUE(rewritten.validation.bit_exact);
  EXPECT_EQ(rewritten.cache.counters.dfg_hits, 0u);
  EXPECT_EQ(rewritten.cache.counters.dfg_misses, 0u);

  // The pristine entry stored by the first run is still valid for by-name
  // requests (each builds a fresh pristine instance) and survives.
  request.emission.verify_rewrites = false;
  const ExplorationReport after = explorer.run(request);
  EXPECT_EQ(after.cache.counters.dfg_hits, 1u);
  EXPECT_EQ(after.cache.counters.dfg_misses, 0u);
  EXPECT_EQ(after.base_cycles, plain.base_cycles);
  EXPECT_EQ(after.total_merit, plain.total_merit);
}

TEST(ResultCache, OptionVariantsOfOneKeyAreSeparateEntries) {
  ResultCache cache;
  double base = 0.0;
  DfgOptions plain;
  DfgOptions rom;
  rom.allow_rom_loads = true;
  cache.store_dfgs("kernel", plain, std::make_shared<const std::vector<Dfg>>(), 100.0);
  cache.store_dfgs("kernel", rom, std::make_shared<const std::vector<Dfg>>(), 100.0);
  cache.store_dfgs("other", plain, std::make_shared<const std::vector<Dfg>>(), 7.0);
  EXPECT_EQ(cache.num_dfg_entries(), 3u);
  EXPECT_NE(cache.lookup_dfgs("kernel", plain, &base), nullptr);
  EXPECT_NE(cache.lookup_dfgs("kernel", rom, &base), nullptr);
  ASSERT_NE(cache.lookup_dfgs("other", plain, &base), nullptr);
  EXPECT_EQ(base, 7.0);
}

TEST(ExplorerCache, PostRewriteInstanceNeverPoisonsTheExtractionCache) {
  // Regression: a non-rewrite run on a Workload instance that was mutated by
  // an earlier rewrite must not file the transformed module's graphs under
  // the pristine workload name — a later by-name request would silently get
  // the rewritten kernel's (much smaller) base cycles and graphs.
  const Explorer explorer(kLat);
  const Explorer pristine_reference(kLat);
  ExplorationRequest request;
  request.scheme = "iterative";
  request.num_instructions = 2;

  Workload w = find_workload("crc32");
  request.emission.verify_rewrites = true;
  const ExplorationReport rewritten = explorer.run(w, request);
  ASSERT_TRUE(rewritten.validation.bit_exact);
  EXPECT_TRUE(w.mutated());

  // The mutated instance bypasses the extraction cache entirely.
  request.emission.verify_rewrites = false;
  const ExplorationReport tainted = explorer.run(w, request);
  EXPECT_EQ(tainted.cache.counters.dfg_hits, 0u);
  EXPECT_EQ(tainted.cache.counters.dfg_misses, 0u);
  EXPECT_LT(tainted.base_cycles, rewritten.base_cycles);  // post-rewrite module

  // Nothing was cached by either run on the mutated instance, so a pristine
  // by-name request extracts fresh — and matches a fresh explorer.
  request.workload = "crc32";
  const ExplorationReport clean = explorer.run(request);
  EXPECT_EQ(clean.cache.counters.dfg_hits, 0u);
  EXPECT_EQ(clean.cache.counters.dfg_misses, 1u);
  const ExplorationReport reference = pristine_reference.run(request);
  EXPECT_EQ(clean.base_cycles, reference.base_cycles);
  EXPECT_EQ(clean.total_merit, reference.total_merit);
  EXPECT_EQ(clean.num_blocks, reference.num_blocks);
}

TEST(ExplorerCache, IdentifyIsMemoizedAndOptOutBypasses) {
  const std::vector<Dfg> blocks = random_blocks(31, 1, 12);
  const Explorer explorer(kLat);
  const Constraints c = cons(4, 2);
  const SingleCutResult cold = explorer.identify(blocks[0], c);
  const SingleCutResult warm = explorer.identify(blocks[0], c);
  const SingleCutResult bypass = explorer.identify(blocks[0], c, /*use_cache=*/false);
  EXPECT_EQ(cold.cut, warm.cut);
  EXPECT_EQ(cold.merit, warm.merit);
  EXPECT_EQ(cold.cut, bypass.cut);
  EXPECT_EQ(explorer.cache().counters().hits, 1u);
  EXPECT_EQ(explorer.cache().counters().misses, 1u);

  const MultiCutResult multi_cold = explorer.identify_multi(blocks[0], c, 2);
  const MultiCutResult multi_warm = explorer.identify_multi(blocks[0], c, 2);
  EXPECT_EQ(multi_cold.total_merit, multi_warm.total_merit);
  EXPECT_EQ(explorer.cache().counters().hits, 2u);
}

TEST(ExplorerCache, ReportRoundTripsCacheCountersThroughJson) {
  const std::vector<Dfg> blocks = random_blocks(37, 2, 10);
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.scheme = "iterative";
  request.constraints = cons(3, 2);
  request.num_instructions = 2;
  explorer.run_blocks(blocks, request);
  const ExplorationReport warm = explorer.run_blocks(blocks, request);
  ASSERT_GT(warm.cache.counters.hits, 0u);

  const std::string text = warm.to_json_string();
  const ExplorationReport back = ExplorationReport::from_json(Json::parse(text));
  EXPECT_EQ(back.to_json_string(), text);
  EXPECT_EQ(back.cache.enabled, warm.cache.enabled);
  EXPECT_EQ(back.cache.counters.hits, warm.cache.counters.hits);
  EXPECT_EQ(back.cache.counters.misses, warm.cache.counters.misses);
  EXPECT_EQ(back.cache.counters.dfg_hits, warm.cache.counters.dfg_hits);
  EXPECT_EQ(back.cache.counters.evictions, warm.cache.counters.evictions);
}

}  // namespace
}  // namespace isex
