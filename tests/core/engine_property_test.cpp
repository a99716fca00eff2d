// Property tests pinning the word-parallel enumeration engines against the
// retained reference implementation (tests/oracle/reference_search.hpp): on
// random DAGs under random constraints, find_best_cut / find_best_cuts must
// return BYTE-identical results — cut bits, bitwise-equal merits, every metrics
// field and every statistics counter — serially and across subtree-split
// depths and thread counts, including on blocks large enough that subtree
// tasks donate work (SubtreeDonation).
#include <gtest/gtest.h>

#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"
#include "dfg/random_dag.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

#include "reference_search.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

void expect_same_stats(const EnumerationStats& a, const EnumerationStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.cuts_considered, b.cuts_considered) << label;
  EXPECT_EQ(a.passed_checks, b.passed_checks) << label;
  EXPECT_EQ(a.failed_output, b.failed_output) << label;
  EXPECT_EQ(a.failed_convex, b.failed_convex) << label;
  EXPECT_EQ(a.pruned_inputs, b.pruned_inputs) << label;
  EXPECT_EQ(a.pruned_bound, b.pruned_bound) << label;
  EXPECT_EQ(a.best_updates, b.best_updates) << label;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << label;
}

void expect_same_single(const SingleCutResult& a, const SingleCutResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.cut, b.cut) << label << " cut " << a.cut.to_string() << " vs "
                          << b.cut.to_string();
  EXPECT_EQ(a.merit, b.merit) << label;  // bitwise: == on doubles, no tolerance
  EXPECT_EQ(a.metrics.num_ops, b.metrics.num_ops) << label;
  EXPECT_EQ(a.metrics.inputs, b.metrics.inputs) << label;
  EXPECT_EQ(a.metrics.outputs, b.metrics.outputs) << label;
  EXPECT_EQ(a.metrics.convex, b.metrics.convex) << label;
  EXPECT_EQ(a.metrics.sw_cycles, b.metrics.sw_cycles) << label;
  EXPECT_EQ(a.metrics.hw_critical, b.metrics.hw_critical) << label;
  EXPECT_EQ(a.metrics.hw_cycles, b.metrics.hw_cycles) << label;
  EXPECT_EQ(a.metrics.area_macs, b.metrics.area_macs) << label;
  expect_same_stats(a.stats, b.stats, label);
}

void expect_same_multi(const MultiCutResult& a, const MultiCutResult& b,
                       const std::string& label) {
  ASSERT_EQ(a.cuts.size(), b.cuts.size()) << label;
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i], b.cuts[i]) << label << " cut " << i;
  }
  EXPECT_EQ(a.total_merit, b.total_merit) << label;
  expect_same_stats(a.stats, b.stats, label);
}

/// Random constraints over the satellite grid: input/output limits 1–6,
/// pruning and the result-preserving accelerations toggled independently.
Constraints random_constraints(Rng& rng) {
  Constraints c;
  c.max_inputs = static_cast<int>(rng.uniform(1, 6));
  c.max_outputs = static_cast<int>(rng.uniform(1, 6));
  c.enable_pruning = rng.chance(0.7);
  c.prune_permanent_inputs = rng.chance(0.4);
  c.branch_and_bound = rng.chance(0.4);
  return c;
}

Dfg random_graph(std::uint64_t seed, Rng& rng) {
  RandomDagConfig cfg;
  cfg.num_ops = static_cast<int>(rng.uniform(6, 26));
  cfg.num_inputs = static_cast<int>(rng.uniform(2, 6));
  cfg.avg_fanin = 1.5 + 0.05 * static_cast<double>(rng.uniform(0, 10));
  cfg.forbidden_fraction = rng.chance(0.5) ? 0.1 : 0.0;
  cfg.seed = seed * 7919 + 13;
  return random_dag(cfg);
}

TEST(EngineProperty, SingleCutByteIdenticalToReference) {
  Rng rng(0xE5C1);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Dfg g = random_graph(seed, rng);
    const Constraints c = random_constraints(rng);
    const SingleCutResult ref = find_best_cut_reference(g, kLat, c);
    const SingleCutResult fast = find_best_cut(g, kLat, c);
    expect_same_single(fast, ref, "seed " + std::to_string(seed));
  }
}

TEST(EngineProperty, SubtreeSplitByteIdenticalAcrossThreadsAndDepths) {
  Rng rng(0x5917);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Dfg g = random_graph(seed, rng);
    const Constraints c = random_constraints(rng);
    const SingleCutResult ref = find_best_cut_reference(g, kLat, c);
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      for (const int depth : {1, 3, 7}) {
        SearchEngineStats stats;
        const SingleCutResult split =
            find_best_cut(g, kLat, c,
                          CutSearchOptions{
                              .executor = &pool, .split_depth = depth, .stats = &stats});
        expect_same_single(split, ref,
                           "seed " + std::to_string(seed) + " threads " +
                               std::to_string(threads) + " depth " + std::to_string(depth));
        // Branch-and-bound searches must fall back to the serial engine
        // (the bound consults the global best, which tasks cannot share
        // deterministically); everything else splits.
        if (c.branch_and_bound) {
          EXPECT_EQ(stats.split_searches.load(), 0u) << "seed " << seed;
          EXPECT_EQ(stats.serial_searches.load(), 1u) << "seed " << seed;
        } else {
          EXPECT_EQ(stats.split_searches.load(), 1u) << "seed " << seed;
        }
      }
    }
  }
}

TEST(EngineProperty, LargeBlockSplitByteIdenticalToSerial) {
  // One fig8-tail-sized block (beyond the 64-node single-word fast path),
  // deep enough that the generator spawns a real task fan-out.
  RandomDagConfig cfg;
  cfg.num_ops = 80;
  cfg.num_inputs = 6;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.05;
  cfg.seed = 80 * 1337;
  const Dfg g = random_dag(cfg);
  Constraints c;
  c.max_inputs = 4;
  c.max_outputs = 2;
  const SingleCutResult serial = find_best_cut(g, kLat, c);
  const SingleCutResult ref = find_best_cut_reference(g, kLat, c);
  expect_same_single(serial, ref, "serial vs reference");
  ThreadPool pool(4);
  SearchEngineStats stats;
  const SingleCutResult split =
      find_best_cut(g, kLat, c,
                    CutSearchOptions{.executor = &pool, .split_depth = 8, .stats = &stats});
  expect_same_single(split, serial, "split vs serial");
  EXPECT_GT(stats.subtree_tasks.load(), 1u);
}

/// A block and a constraint set on which the donation quantum fires.
struct DonationCase {
  std::string label;
  Dfg graph;
  Constraints cons;
};

/// Pruning and permanent-input pruning each on and off: a 40-op block at a
/// tight 2-in/4-out window (334,641 cuts pruned, 238,059 with permanent
/// inputs pruned too) and an 18-candidate block with pruning off (2^18 - 1
/// cuts, 239,103 with permanent inputs pruned).
std::vector<DonationCase> donation_cases() {
  const auto block = [](int num_ops, std::uint64_t seed) {
    RandomDagConfig cfg;
    cfg.num_ops = num_ops;
    cfg.num_inputs = 8;
    cfg.avg_fanin = 1.9;
    cfg.forbidden_fraction = 0.1;
    cfg.seed = seed;
    return random_dag(cfg);
  };
  std::vector<DonationCase> cases;
  for (const bool pruning : {true, false}) {
    for (const bool permanent : {false, true}) {
      Constraints c;
      c.max_inputs = pruning ? 2 : 4;
      c.max_outputs = pruning ? 4 : 2;
      c.enable_pruning = pruning;
      c.prune_permanent_inputs = permanent;
      cases.push_back({std::string(pruning ? "pruned" : "unpruned") +
                           (permanent ? "+permanent" : ""),
                       pruning ? block(40, 40003) : block(20, 20002), c});
    }
  }
  return cases;
}

TEST(SubtreeDonation, ByteIdenticalToSerialAndReferenceWithOneTaskSetPerDepth) {
  for (const DonationCase& dc : donation_cases()) {
    const SingleCutResult ref = find_best_cut_reference(dc.graph, kLat, dc.cons);
    const SingleCutResult serial = find_best_cut(dc.graph, kLat, dc.cons);
    expect_same_single(serial, ref, dc.label + " serial vs reference");
    for (const int depth : {1, 3, 10}) {
      std::uint64_t tasks = 0;
      std::uint64_t donated = 0;
      for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        SearchEngineStats stats;
        const std::string label = dc.label + " depth " + std::to_string(depth) +
                                  " threads " + std::to_string(threads);
        expect_same_single(
            find_best_cut(dc.graph, kLat, dc.cons,
                          CutSearchOptions{
                              .executor = &pool, .split_depth = depth, .stats = &stats}),
            serial, label);
        EXPECT_EQ(stats.split_searches.load(), 1u) << label;
        if (threads == 1) {
          tasks = stats.subtree_tasks.load();
          donated = stats.donated_tasks.load();
        }
        // Donation reads only each task's own cut count: one task set for
        // every thread count.
        EXPECT_EQ(stats.subtree_tasks.load(), tasks) << label;
        EXPECT_EQ(stats.donated_tasks.load(), donated) << label;
      }
      // The quantum fires, so there are more tasks than the eager split
      // queued. The one exception: at depth 10 every eager task of the
      // unpruned tree holds 2^8 - 1 cuts, below the quantum.
      if (dc.cons.enable_pruning || depth < 10) {
        EXPECT_GT(donated, 0u) << dc.label << " depth " << depth;
      }
    }
  }
}

TEST(EngineProperty, DynamicWordWidthPathByteIdenticalToReference) {
  // Graphs beyond 256 nodes dispatch to the kWords == 0 engine, the only
  // instantiation where the row width is a runtime value — pin it against
  // the reference too (tight 2-in/1-out constraints keep the tree small).
  RandomDagConfig cfg;
  cfg.num_ops = 300;
  cfg.num_inputs = 8;
  cfg.avg_fanin = 1.7;
  cfg.liveout_fraction = 0.15;
  cfg.seed = 300 * 1337;
  const Dfg g = random_dag(cfg);
  ASSERT_GT(g.num_nodes(), 256u);  // below this the <=4-word fast paths win
  Constraints c;
  c.max_inputs = 2;
  c.max_outputs = 1;
  const SingleCutResult ref = find_best_cut_reference(g, kLat, c);
  const SingleCutResult fast = find_best_cut(g, kLat, c);
  expect_same_single(fast, ref, "dynamic-width serial");
  ThreadPool pool(2);
  const SingleCutResult split =
      find_best_cut(g, kLat, c, CutSearchOptions{.executor = &pool, .split_depth = 6});
  expect_same_single(split, ref, "dynamic-width split");
}

TEST(EngineProperty, MultiCutByteIdenticalToReference) {
  // 5-27 ops, one to four cuts, every Constraints toggle. About a third of
  // the searches get a budget that runs out mid-search: the partial best and
  // its counters pin the visitation order, not just the optimum. The rest
  // run under a cap that keeps the unpruned ablation trees test-sized.
  Rng rng(0x3C17);
  int exhausted = 0;
  int completed = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = static_cast<int>(rng.uniform(5, 27));
    cfg.num_inputs = static_cast<int>(rng.uniform(1, 6));
    cfg.avg_fanin = 1.3 + 0.1 * static_cast<double>(rng.uniform(0, 8));
    cfg.forbidden_fraction = rng.chance(0.4) ? 0.15 : 0.0;
    cfg.seed = seed * 977 + 5;
    Dfg g = random_dag(cfg);
    if (rng.chance(0.3)) g.set_exec_freq(1.0 + 0.37 * static_cast<double>(rng.uniform(0, 50)));
    Constraints c = random_constraints(rng);
    c.search_budget = rng.chance(0.33) ? static_cast<std::uint64_t>(rng.uniform(1, 2000)) : 20000;
    const int m = static_cast<int>(rng.uniform(1, 4));
    const MultiCutResult ref = find_best_cuts_reference(g, kLat, c, m);
    const MultiCutResult fast = find_best_cuts(g, kLat, c, m);
    expect_same_multi(fast, ref, "seed " + std::to_string(seed) + " m " + std::to_string(m));
    (ref.stats.budget_exhausted ? exhausted : completed) += 1;
  }
  // Both halves of the contract are exercised in bulk.
  EXPECT_GE(exhausted, 100);
  EXPECT_GE(completed, 100);
}

TEST(EngineProperty, MultiCutDynamicWordWidthPathByteIdenticalToReference) {
  // The kWords == 0 multi-cut engine (beyond 256 nodes) under tight 2-in/
  // 1-out constraints: one cut to completion, two and three cuts stopped by
  // their budgets (the two-cut tree alone holds ~9M cuts).
  RandomDagConfig cfg;
  cfg.num_ops = 300;
  cfg.num_inputs = 8;
  cfg.avg_fanin = 1.7;
  cfg.liveout_fraction = 0.15;
  cfg.seed = 300 * 1337;
  const Dfg g = random_dag(cfg);
  ASSERT_GT(g.num_nodes(), 256u);
  Constraints c;
  c.max_inputs = 2;
  c.max_outputs = 1;
  for (const auto& [m, budget] : {std::pair{1, 0}, std::pair{2, 100000}, std::pair{3, 5000}}) {
    c.search_budget = static_cast<std::uint64_t>(budget);
    const MultiCutResult ref = find_best_cuts_reference(g, kLat, c, m);
    EXPECT_EQ(ref.stats.budget_exhausted, budget != 0) << m;
    expect_same_multi(find_best_cuts(g, kLat, c, m), ref, "m " + std::to_string(m));
  }
}

TEST(EngineProperty, SerialSearchesCountedWhenSplitDisabled) {
  RandomDagConfig cfg;
  cfg.num_ops = 10;
  cfg.seed = 42;
  const Dfg g = random_dag(cfg);
  Constraints c;
  c.max_inputs = 4;
  c.max_outputs = 2;
  SearchEngineStats stats;
  (void)find_best_cut(g, kLat, c, CutSearchOptions{.stats = &stats});
  EXPECT_EQ(stats.serial_searches.load(), 1u);
  EXPECT_EQ(stats.split_searches.load(), 0u);
  EXPECT_EQ(stats.subtree_tasks.load(), 0u);
}

}  // namespace
}  // namespace isex
