// Cancellation purity of the exploration pipeline: a token that never
// fires changes nothing, a token that fires mid-search yields a best-so-far
// report flagged partial while leaving the shared ResultCache byte-identical
// to a request that never ran — across thread counts and subtree splits —
// and a cancelled run never poisons later cache hits. Mid-search trips use
// the deterministic trip_after_polls seam; the deadline cases use a time
// already past, or a 50 ms deadline on a search that runs far longer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "cache/fingerprint.hpp"
#include "dfg/random_dag.hpp"
#include "support/cancellation.hpp"
#include "support/hash.hpp"

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
    cfg.seed = seed * 131 + static_cast<std::uint64_t>(b);
    Dfg g = random_dag(cfg);
    g.set_exec_freq(1.0 + static_cast<double>(b) * 3);
    blocks.push_back(std::move(g));
  }
  return blocks;
}

ExplorationRequest blocks_request(int num_threads, int split_depth) {
  ExplorationRequest request;
  request.constraints = cons(3, 2);
  request.num_instructions = 4;
  request.scheme = "iterative";
  request.num_threads = num_threads;
  request.subtree_split_depth = split_depth;
  return request;
}

ExplorationRequest optimal_request(int num_threads) {
  ExplorationRequest request;
  request.constraints = cons(3, 2);
  request.num_instructions = 4;
  request.scheme = "optimal";
  request.num_threads = num_threads;
  return request;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// `report` JSON minus the sections that legitimately differ between runs
/// (wall-clock timings, warm-vs-cold cache counters).
Json comparable(const Json& payload) {
  if (payload.type() == Json::Type::array) {
    Json filtered = Json::array();
    for (const Json& element : payload.as_array()) filtered.push_back(comparable(element));
    return filtered;
  }
  if (payload.type() != Json::Type::object) return payload;
  Json filtered = Json::object();
  for (const auto& [key, value] : payload.as_object()) {
    if (key == "timings" || key == "cache") continue;
    filtered.set(key, comparable(value));
  }
  return filtered;
}

TEST(CancellationPurity, NeverFiringTokenIsByteIdenticalToNoToken) {
  const std::vector<Dfg> blocks = random_blocks(3, 5, 12);
  for (const int threads : {1, 8}) {
    const ExplorationRequest request = blocks_request(threads, 4);

    auto plain_cache = std::make_shared<ResultCache>();
    const Explorer plain(kLat, plain_cache);
    const ExplorationReport baseline = plain.run_blocks(blocks, request);
    EXPECT_FALSE(baseline.partial);

    auto token_cache = std::make_shared<ResultCache>();
    const Explorer with_token(kLat, token_cache);
    CancelToken token;  // present but never tripped
    RunHooks hooks;
    hooks.cancel = &token;
    const ExplorationReport tokened = with_token.run_blocks(blocks, request, hooks);

    EXPECT_FALSE(tokened.partial) << threads;
    EXPECT_EQ(comparable(tokened.to_json()).dump(), comparable(baseline.to_json()).dump())
        << threads;
    // Cache *bytes* only compare on the serial run: parallel identification
    // legitimately varies the memo insertion (= dump) order, never content.
    if (threads == 1) {
      EXPECT_EQ(token_cache->to_json().dump(), plain_cache->to_json().dump());
    }
  }
}

TEST(CancellationPurity, MidSearchTripLeavesTheSharedCacheUntouchedAcrossThreadCounts) {
  const std::vector<Dfg> blocks = random_blocks(7, 6, 12);
  for (const int threads : {1, 2, 8}) {
    for (const int split : {0, 4}) {
      auto cache = std::make_shared<ResultCache>();
      const Explorer explorer(kLat, cache);
      const std::string never_run = cache->to_json().dump();

      // The first poll of the run — wherever the thread schedule places it —
      // trips the token, so every identification search returns cancelled
      // and the memo layer refuses every store.
      CancelToken token;
      token.trip_after_polls(1);
      RunHooks hooks;
      hooks.cancel = &token;
      const ExplorationReport report =
          explorer.run_blocks(blocks, blocks_request(threads, split), hooks);

      const std::string label =
          "threads=" + std::to_string(threads) + " split=" + std::to_string(split);
      EXPECT_TRUE(report.partial) << label;
      EXPECT_EQ(report.partial_reason, "trip_after") << label;
      EXPECT_EQ(cache->to_json().dump(), never_run) << label;
    }
  }
}

TEST(CancellationPurity, DonatingSplitTripLeavesTheSharedCacheUntouched) {
  // One block whose first search holds 334,641 cuts at 2-in/4-out. Split
  // at depth 1 it queues at most two eager tasks, so by the 60,000th poll
  // one of them has passed the 16,384-cut donation quantum and donated.
  // The trip then stops every task mid-walk: the run must not hang on the
  // task queue, must come back partial, and must store nothing.
  RandomDagConfig cfg;
  cfg.num_ops = 40;
  cfg.num_inputs = 8;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.1;
  cfg.seed = 40003;
  const std::vector<Dfg> blocks = {random_dag(cfg)};
  ExplorationRequest request = blocks_request(1, 1);
  request.constraints = cons(2, 4);
  for (const int threads : {1, 2, 8}) {
    auto cache = std::make_shared<ResultCache>();
    const Explorer explorer(kLat, cache);
    const std::string never_run = cache->to_json().dump();

    CancelToken token;
    token.trip_after_polls(60000);
    RunHooks hooks;
    hooks.cancel = &token;
    request.num_threads = threads;
    const ExplorationReport report = explorer.run_blocks(blocks, request, hooks);

    EXPECT_TRUE(report.partial) << threads;
    EXPECT_EQ(report.partial_reason, "trip_after") << threads;
    EXPECT_GT(report.engine.subtree_tasks, 2u) << threads;  // some were donated
    EXPECT_EQ(cache->to_json().dump(), never_run) << threads;
  }
}

TEST(CancellationPurity, OptimalMidSearchTripLeavesTheSharedCacheUntouched) {
  // Every multi-cut search of these blocks polls more than five times, so
  // the fifth poll — whichever search makes it, on any thread count — trips
  // every search mid-walk and the memo layer stores none of them.
  const std::vector<Dfg> blocks = random_blocks(31, 4, 14);
  for (const int threads : {1, 4}) {
    auto cache = std::make_shared<ResultCache>();
    const Explorer explorer(kLat, cache);
    const std::string never_run = cache->to_json().dump();

    CancelToken token;
    token.trip_after_polls(5);
    RunHooks hooks;
    hooks.cancel = &token;
    const ExplorationReport report =
        explorer.run_blocks(blocks, optimal_request(threads), hooks);

    EXPECT_TRUE(report.partial) << threads;
    EXPECT_EQ(report.partial_reason, "trip_after") << threads;
    EXPECT_GT(report.stats.cuts_considered, 0u) << threads;
    EXPECT_EQ(cache->to_json().dump(), never_run) << threads;
  }
}

TEST(CancellationPurity, SerialOptimalTripReproducesThePinnedPartialReport) {
  // The multi-cut engine polls the token once per search-tree node, so a
  // serial run tripped after a fixed poll count stops at one fixed node.
  // Greedy Optimal's first round runs each block's one-cut search in block
  // order: blocks 0-2 complete (540 + 196 + 280 cuts) and are memoized,
  // block 3's stops after 183 cuts with a partial best, and the later
  // rounds' searches never start. The explicit checks pin what the poll
  // cadence decides; the digests, recorded with the previous multi-cut
  // engine, pin the rest of the report and of the memo. The memo digest was
  // re-recorded when snapshot entries stopped carrying "structural": it is
  // the old snapshot with that member removed.
  const std::vector<Dfg> blocks = random_blocks(31, 4, 14);
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  CancelToken token;
  token.trip_after_polls(1500);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport report = explorer.run_blocks(blocks, optimal_request(1), hooks);

  ASSERT_TRUE(report.partial);
  EXPECT_EQ(report.identification_calls, 7u);
  EXPECT_EQ(report.stats.cuts_considered, 1199u);

  // The completed searches, as "block/num_cuts/cuts_considered" in store order.
  const Json memo = cache->to_json();
  std::vector<std::string> stored;
  for (const Json& e : memo.at("entries").as_array()) {
    std::string block = "?";
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (hex16(dfg_fingerprint(blocks[b]).exact) == e.at("exact").as_string()) {
        block = std::to_string(b);
      }
    }
    stored.push_back(block + "/" + std::to_string(e.at("num_cuts").as_int()) + "/" +
                     std::to_string(e.at("multi").at("stats").at("cuts_considered").as_uint()));
  }
  EXPECT_EQ(stored, (std::vector<std::string>{"0/1/540", "1/1/196", "2/1/280"}));
  EXPECT_EQ(cache->num_entries(), 3u);

  // The cut-off search's partial best.
  ASSERT_EQ(report.cuts.size(), 4u);
  EXPECT_EQ(report.cuts[3].block_index, 3);
  EXPECT_EQ(report.cuts[3].merit, 30.0);
  EXPECT_EQ(report.cuts[3].nodes, "{16, 17, 18}");
  EXPECT_EQ(report.total_merit, 73.0);

  EXPECT_EQ(hex16(hash_bytes(comparable(report.to_json()).dump())), "e6d4a46adc7eaf48");
  EXPECT_EQ(hex16(hash_bytes(memo.dump())), "e5e8ccb0aa4a0e7e");
}

TEST(CancellationPurity, AlreadyExpiredDeadlineYieldsAPartialReportAndAPureCache) {
  const std::vector<Dfg> blocks = random_blocks(11, 4, 10);
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  const std::string never_run = cache->to_json().dump();

  CancelToken token;
  const DeadlineTimer expired(token, std::chrono::steady_clock::now(), kReasonDeadlineExceeded);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport report =
      explorer.run_blocks(blocks, blocks_request(1, 0), hooks);

  EXPECT_TRUE(report.partial);
  EXPECT_EQ(report.partial_reason, kReasonDeadlineExceeded);
  EXPECT_EQ(cache->to_json().dump(), never_run);
}

TEST(CancellationPurity, RequestDeadlineCutsALongSearchShortAndLeavesTheCachePure) {
  // The Fig. 8 synthetic tail random<140,187180>: Iterative at 6/3 counts
  // ~74M cuts on it, and its first search alone 20M, which takes a 4-vCPU
  // host ~240 ms on one thread.
  RandomDagConfig cfg;
  cfg.num_ops = 140;
  cfg.num_inputs = 6;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.05;
  cfg.seed = 140 * 1337;
  const std::vector<Dfg> blocks{random_dag(cfg)};
  ExplorationRequest request;
  request.constraints = cons(6, 3);
  request.scheme = "iterative";
  request.num_threads = 1;
  request.subtree_split_depth = 10;

  // No caller token: the run's own timer trips a run-local one before the
  // first search completes, so nothing reaches the memo.
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  const std::string never_run = cache->to_json().dump();
  request.deadline_ms = 50;
  const ExplorationReport cut_short = explorer.run_blocks(blocks, request);
  EXPECT_TRUE(cut_short.partial);
  EXPECT_EQ(cut_short.partial_reason, kReasonDeadlineExceeded);
  EXPECT_LT(cut_short.stats.cuts_considered, 20'000'000u);
  EXPECT_EQ(cache->to_json().dump(), never_run);

  // A deadline that never fires changes nothing but the timings (on four
  // threads, to keep the two full searches short).
  request.num_threads = 4;
  request.deadline_ms = 3'600'000;
  const ExplorationReport hour =
      Explorer(kLat, std::make_shared<ResultCache>()).run_blocks(blocks, request);
  request.deadline_ms = 0;
  const ExplorationReport plain =
      Explorer(kLat, std::make_shared<ResultCache>()).run_blocks(blocks, request);
  EXPECT_FALSE(hour.partial);
  EXPECT_EQ(comparable(hour.to_json()).dump(), comparable(plain.to_json()).dump());
}

TEST(CancellationPurity, CancelledRunsNeverPoisonLaterCacheHits) {
  const std::vector<Dfg> blocks = random_blocks(19, 6, 12);
  const ExplorationRequest request = blocks_request(2, 0);

  // A mid-run trip: early searches may have completed (and stored their
  // *complete* enumerations — those are valid entries), later ones return
  // cancelled best-so-far answers that must never reach the memo.
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  CancelToken token;
  token.trip_after_polls(200);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport cancelled = explorer.run_blocks(blocks, request, hooks);
  ASSERT_TRUE(cancelled.partial);  // 6 blocks of 12 ops demand far more polls

  // Replaying the request through the survivor cache must equal a cold run
  // on a fresh cache byte-for-byte: every entry the cancelled run left
  // behind replays its cold search exactly.
  const ExplorationReport warm = explorer.run_blocks(blocks, request);
  const Explorer fresh(kLat, std::make_shared<ResultCache>());
  const ExplorationReport cold = fresh.run_blocks(blocks, request);
  EXPECT_FALSE(warm.partial);
  EXPECT_EQ(comparable(warm.to_json()).dump(), comparable(cold.to_json()).dump());
}

TEST(CancellationPurity, PartialFlagRoundTripsThroughReportJson) {
  const std::vector<Dfg> blocks = random_blocks(23, 3, 10);
  const Explorer explorer(kLat, std::make_shared<ResultCache>());

  CancelToken token;
  token.trip_after_polls(1);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport partial =
      explorer.run_blocks(blocks, blocks_request(1, 0), hooks);
  ASSERT_TRUE(partial.partial);
  const ExplorationReport back = ExplorationReport::from_json(partial.to_json());
  EXPECT_TRUE(back.partial);
  EXPECT_EQ(back.partial_reason, partial.partial_reason);
  EXPECT_EQ(back.to_json().dump(), partial.to_json().dump());

  // Complete reports spend no bytes on the flag and parse back untripped.
  const ExplorationReport full = explorer.run_blocks(blocks, blocks_request(1, 0));
  EXPECT_EQ(full.to_json().find("partial"), nullptr);
  EXPECT_FALSE(ExplorationReport::from_json(full.to_json()).partial);
}

}  // namespace
}  // namespace isex
