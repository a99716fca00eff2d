#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "cache/result_cache.hpp"
#include "core/area_select.hpp"
#include "core/baseline_select.hpp"
#include "core/clubbing.hpp"
#include "core/iterative_select.hpp"
#include "core/maxmiso.hpp"
#include "core/optimal_select.hpp"
#include "core/portfolio_select.hpp"
#include "core/search_tables.hpp"
#include "dfg/random_dag.hpp"
#include "support/cancellation.hpp"

#include "schedulable.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Constraints cons(int nin, int nout) {
  Constraints c;
  c.max_inputs = nin;
  c.max_outputs = nout;
  return c;
}

/// A block with two independent profitable chains (mul+add each).
Dfg chains_block(double freq, int chains) {
  Dfg g;
  for (int i = 0; i < chains; ++i) {
    const NodeId a = g.add_input();
    const NodeId b = g.add_input();
    const NodeId m = g.add_op(Opcode::mul);
    const NodeId s = g.add_op(Opcode::add);
    g.add_edge(a, m);
    g.add_edge(b, m);
    g.add_edge(m, s);
    g.add_edge(a, s);
    g.add_output(s);
  }
  g.set_exec_freq(freq);
  g.finalize();
  return g;
}

TEST(OptimalSelect, PicksHighestFrequencyBlocksFirst) {
  // Three blocks in the style of the paper's Fig. 10, different frequencies.
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 1));  // merit 10 per cut
  blocks.push_back(chains_block(50.0, 1));  // merit 50
  blocks.push_back(chains_block(20.0, 1));  // merit 20
  const SelectionResult r = select_optimal(blocks, kLat, cons(4, 1), 2);
  ASSERT_EQ(r.cuts.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_merit, 70.0);
  EXPECT_EQ(r.cuts[0].block_index, 1);
  EXPECT_EQ(r.cuts[1].block_index, 2);
}

TEST(OptimalSelect, IdentificationCallBoundFromPaper) {
  // The paper: at most Ninstr + Nbb - 1 invocations of the identifier.
  std::vector<Dfg> blocks;
  for (int b = 0; b < 4; ++b) blocks.push_back(chains_block(10.0 + b, 2));
  const int ninstr = 5;
  const SelectionResult r = select_optimal(blocks, kLat, cons(4, 1), ninstr);
  EXPECT_LE(r.identification_calls,
            static_cast<std::uint64_t>(ninstr) + blocks.size() - 1);
  EXPECT_GE(r.identification_calls, blocks.size());  // every block once
}

TEST(OptimalSelect, MultipleCutsPerBlockWhenWorthIt) {
  // One hot block with two chains beats two cold blocks.
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(100.0, 2));
  blocks.push_back(chains_block(1.0, 1));
  const SelectionResult r = select_optimal(blocks, kLat, cons(4, 1), 2);
  ASSERT_EQ(r.cuts.size(), 2u);
  EXPECT_EQ(r.cuts[0].block_index, 0);
  EXPECT_EQ(r.cuts[1].block_index, 0);
  EXPECT_DOUBLE_EQ(r.total_merit, 200.0);
}

TEST(OptimalSelect, GreedyMatchesExactDp) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<Dfg> blocks;
    for (int b = 0; b < 3; ++b) {
      RandomDagConfig cfg;
      cfg.num_ops = 8;
      cfg.seed = seed * 31 + static_cast<std::uint64_t>(b);
      Dfg g = random_dag(cfg);
      g.set_exec_freq(1.0 + static_cast<double>(b) * 3);
      blocks.push_back(std::move(g));
    }
    const SelectionResult greedy =
        select_optimal(blocks, kLat, cons(3, 2), 4, OptimalMode::greedy_increments);
    const SelectionResult dp =
        select_optimal(blocks, kLat, cons(3, 2), 4, OptimalMode::exact_dp);
    EXPECT_NEAR(greedy.total_merit, dp.total_merit, 1e-9) << "seed " << seed;
  }
}

TEST(IterativeSelect, MatchesOptimalOnSeparableBlocks) {
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 2));
  blocks.push_back(chains_block(7.0, 1));
  const SelectionResult iter = select_iterative(blocks, kLat, cons(4, 1), 3);
  const SelectionResult opt = select_optimal(blocks, kLat, cons(4, 1), 3);
  EXPECT_DOUBLE_EQ(iter.total_merit, opt.total_merit);
  EXPECT_EQ(iter.cuts.size(), 3u);
}

TEST(IterativeSelect, CutsAreDisjointAndFeasible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 16;
    cfg.seed = seed * 7;
    std::vector<Dfg> blocks;
    blocks.push_back(random_dag(cfg));
    const Dfg& g = blocks[0];
    const SelectionResult r = select_iterative(blocks, kLat, cons(3, 2), 4);
    BitVector seen(g.num_nodes());
    for (const SelectedCut& sc : r.cuts) {
      EXPECT_TRUE(sc.cut.disjoint_with(seen)) << "seed " << seed;
      seen |= sc.cut;
      const CutMetrics m = compute_metrics(g, sc.cut, kLat);
      EXPECT_TRUE(m.convex);
      EXPECT_LE(m.inputs, 3);
      EXPECT_LE(m.outputs, 2);
      EXPECT_GT(sc.merit, 0.0);
    }
    // All chosen cuts must be jointly schedulable in the original graph.
    std::vector<BitVector> cuts;
    for (const SelectedCut& sc : r.cuts) cuts.push_back(sc.cut);
    EXPECT_TRUE(cuts_jointly_schedulable(g, cuts)) << "seed " << seed;
  }
}

TEST(IterativeSelect, StopsWhenNoPositiveMerit) {
  // Single lonely add: never worth a special instruction.
  Dfg g;
  const NodeId in = g.add_input();
  const NodeId a = g.add_op(Opcode::add);
  g.add_edge(in, a);
  g.add_output(a);
  g.finalize();
  std::vector<Dfg> blocks{std::move(g)};
  const SelectionResult r = select_iterative(blocks, kLat, cons(4, 2), 8);
  EXPECT_TRUE(r.cuts.empty());
  EXPECT_DOUBLE_EQ(r.total_merit, 0.0);
}

TEST(IterativeSelect, CollapsePreventsReuse) {
  // A single chain: after the first cut takes it, nothing is left.
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 1));
  const SelectionResult r = select_iterative(blocks, kLat, cons(4, 1), 4);
  EXPECT_EQ(r.cuts.size(), 1u);
}

// --- The run context ------------------------------------------------------

/// Every observable field of a selection: cuts, merits, instances,
/// identification calls and each statistics counter.
std::string digest(const PortfolioSelectionResult& r) {
  std::string out;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a ", v);
    out += buf;
  };
  for (const PortfolioSelectedCut& c : r.cuts) {
    for (std::size_t k = 0; k < c.served.size(); ++k) {
      out += std::to_string(c.served[k].bundle_index) + "/" +
             std::to_string(c.served[k].block_index) + ":" + c.served_cuts[k].to_string() + " ";
    }
    num(c.merit);
    num(c.weighted_merit);
    out += "| ";
  }
  num(r.total_weighted_merit);
  for (const double saved : r.saved_per_bundle) num(saved);
  const EnumerationStats& st = r.stats;
  for (const std::uint64_t v : {r.identification_calls, st.cuts_considered, st.passed_checks,
                                st.failed_output, st.failed_convex, st.pruned_inputs,
                                st.pruned_bound, st.best_updates}) {
    out += std::to_string(v) + " ";
  }
  out += st.budget_exhausted ? "exhausted " : "";
  out += st.cancelled ? "cancelled" : "";
  return out;
}

TEST(RunContext, EverySchemeSelectsTheSameUnderAnyContext) {
  std::vector<Dfg> blocks_a;
  std::vector<Dfg> blocks_b;
  for (std::uint64_t b = 0; b < 3; ++b) {
    RandomDagConfig cfg;
    cfg.num_ops = 14;
    cfg.seed = 4100 + b;
    Dfg g = random_dag(cfg);
    g.set_exec_freq(1.0 + static_cast<double>(b));
    blocks_a.push_back(g);
    cfg.seed = 5100 + b;
    blocks_b.push_back(b == 0 ? std::move(g) : random_dag(cfg));  // one shared kernel
  }
  const std::vector<WorkloadBundle> bundles = {{"a", blocks_a, 2.0, 900.0},
                                               {"b", blocks_b, 1.0, 700.0}};
  const Constraints c = cons(3, 2);
  AreaSelectOptions area;
  area.max_area_macs = 0.2;
  area.num_instructions = 3;

  using Scheme = std::function<PortfolioSelectionResult(const CutSearchOptions&)>;
  const std::vector<std::pair<std::string, Scheme>> schemes = {
      {"iterative",
       [&](const CutSearchOptions& s) {
         return portfolio_from_single(select_iterative(blocks_a, kLat, c, 4, s), 1.0);
       }},
      {"optimal",
       [&](const CutSearchOptions& s) {
         return portfolio_from_single(
             select_optimal(blocks_a, kLat, c, 4, OptimalMode::greedy_increments, s), 1.0);
       }},
      {"optimal-dp",
       [&](const CutSearchOptions& s) {
         return portfolio_from_single(
             select_optimal(blocks_a, kLat, c, 4, OptimalMode::exact_dp, s), 1.0);
       }},
      {"area",
       [&](const CutSearchOptions& s) {
         return portfolio_from_single(select_area_constrained(blocks_a, kLat, c, area, s), 1.0);
       }},
      {"joint-iterative",
       [&](const CutSearchOptions& s) {
         return select_portfolio_iterative(bundles, kLat, c, 4, s);
       }},
      {"merge-then-select",
       [&](const CutSearchOptions& s) {
         return select_portfolio_merge(bundles, kLat, c, 4, 0.0, 0.002, s);
       }},
  };

  ThreadPool pool(4);
  for (const auto& [name, run] : schemes) {
    const std::string plain = digest(run(CutSearchOptions{}));
    ASSERT_NE(plain.find(':'), std::string::npos) << name << " selected nothing";

    ResultCache cache;
    CacheCounters cold;
    SearchEngineStats engine;
    BudgetGate gate(std::uint64_t{1} << 40);  // too large to run out
    CancelToken token;                          // never tripped
    CutSearchOptions context{.executor = &pool,
                             .cache = &cache,
                             .cache_counters = &cold,
                             .split_depth = 3,
                             .stats = &engine,
                             .budget = &gate,
                             .cancel = &token};
    EXPECT_EQ(digest(run(context)), plain) << name;
    EXPECT_GT(cold.misses, 0u) << name;
    EXPECT_GT(gate.consumed(), 0u) << name;
    EXPECT_FALSE(gate.exhausted()) << name;
    // The multi-cut engine never splits and keeps no engine counters.
    EXPECT_EQ(engine.split_searches > 0, name.rfind("optimal", 0) != 0) << name;

    // A second run through the same cache searches nothing.
    CacheCounters warm;
    context.cache_counters = &warm;
    EXPECT_EQ(digest(run(context)), plain) << name;
    EXPECT_EQ(warm.misses, 0u) << name;
    EXPECT_GT(warm.hits, 0u) << name;
  }
}

// --- Baselines -----------------------------------------------------------

TEST(Clubbing, ClubsAreFeasibleAndDisjoint) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 14;
    cfg.seed = seed;
    const Dfg g = random_dag(cfg);
    const Constraints c = cons(3, 2);
    const auto clubs = find_clubs(g, kLat, c);
    BitVector seen(g.num_nodes());
    for (const BitVector& club : clubs) {
      EXPECT_TRUE(club.disjoint_with(seen));
      seen |= club;
      EXPECT_TRUE(is_feasible(g, club, kLat, c.max_inputs, c.max_outputs)) << "seed " << seed;
    }
  }
}

TEST(Clubbing, MergesChainIntoOneClub) {
  // in -> add -> add -> add -> out merges into a single club under 2/1.
  Dfg g;
  const NodeId in = g.add_input();
  NodeId prev = in;
  for (int i = 0; i < 3; ++i) {
    const NodeId a = g.add_op(Opcode::add);
    g.add_edge(prev, a);
    if (i == 0) {
      const NodeId in2 = g.add_input();
      g.add_edge(in2, a);
    } else {
      g.add_edge(g.add_constant(i), a);
    }
    prev = a;
  }
  g.add_output(prev);
  g.finalize();
  const auto clubs = find_clubs(g, kLat, cons(2, 1));
  ASSERT_EQ(clubs.size(), 1u);
  EXPECT_EQ(clubs[0].count(), 3u);
}

TEST(MaxMiso, PartitionCoversAllCandidates) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 14;
    cfg.seed = seed * 3;
    const Dfg g = random_dag(cfg);
    const auto misos = find_max_misos(g);
    BitVector seen(g.num_nodes());
    std::size_t covered = 0;
    for (const BitVector& miso : misos) {
      EXPECT_TRUE(miso.disjoint_with(seen)) << "seed " << seed;
      seen |= miso;
      covered += miso.count();
      const CutMetrics m = compute_metrics(g, miso, kLat);
      EXPECT_EQ(m.outputs, 1) << "seed " << seed;  // single output by construction
      EXPECT_TRUE(m.convex) << "seed " << seed;
    }
    EXPECT_EQ(covered, g.candidates().size()) << "seed " << seed;
  }
}

TEST(MaxMiso, AbsorbsDiamondIntoOneMiso) {
  // p feeds a and b; both feed r; only r is live out -> one MISO {p,a,b,r}.
  Dfg g;
  const NodeId in = g.add_input();
  const NodeId p = g.add_op(Opcode::add, "p");
  const NodeId a = g.add_op(Opcode::shl, "a");
  const NodeId b = g.add_op(Opcode::shr_u, "b");
  const NodeId r = g.add_op(Opcode::or_, "r");
  g.add_edge(in, p);
  g.add_edge(g.add_constant(1), p);
  g.add_edge(p, a);
  g.add_edge(g.add_constant(2), a);
  g.add_edge(p, b);
  g.add_edge(g.add_constant(3), b);
  g.add_edge(a, r);
  g.add_edge(b, r);
  g.add_output(r);
  g.finalize();
  const auto misos = find_max_misos(g);
  ASSERT_EQ(misos.size(), 1u);
  EXPECT_EQ(misos[0].count(), 4u);
}

TEST(MaxMiso, FanOutToDistinctSinksSplits) {
  // p feeds two live-out adds: p roots its own MISO (fan-out split).
  Dfg g;
  const NodeId in = g.add_input();
  const NodeId p = g.add_op(Opcode::mul, "p");
  const NodeId x = g.add_op(Opcode::add, "x");
  const NodeId y = g.add_op(Opcode::sub, "y");
  g.add_edge(in, p);
  g.add_edge(g.add_constant(5), p);
  g.add_edge(p, x);
  g.add_edge(in, x);
  g.add_edge(p, y);
  g.add_edge(in, y);
  g.add_output(x);
  g.add_output(y);
  g.finalize();
  const auto misos = find_max_misos(g);
  EXPECT_EQ(misos.size(), 3u);
}

TEST(BaselineSelect, RespectsConstraintFilterForMaxMiso) {
  // One MISO with 3 inputs: selected at Nin=3, dropped at Nin=2 — the
  // paper's Section 8 observation (M1 lost inside the larger 3-input M2).
  Dfg g;
  const NodeId i1 = g.add_input();
  const NodeId i2 = g.add_input();
  const NodeId i3 = g.add_input();
  const NodeId m = g.add_op(Opcode::mul);
  const NodeId s = g.add_op(Opcode::add);
  g.add_edge(i1, m);
  g.add_edge(i2, m);
  g.add_edge(m, s);
  g.add_edge(i3, s);
  g.add_output(s);
  g.finalize();
  std::vector<Dfg> blocks{std::move(g)};

  const SelectionResult at3 =
      select_baseline(blocks, kLat, cons(3, 1), 4, BaselineAlgorithm::max_miso);
  EXPECT_EQ(at3.cuts.size(), 1u);
  const SelectionResult at2 =
      select_baseline(blocks, kLat, cons(2, 1), 4, BaselineAlgorithm::max_miso);
  EXPECT_TRUE(at2.cuts.empty());
}

TEST(BaselineSelect, KeepsBestNInstr) {
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(5.0, 2));
  blocks.push_back(chains_block(50.0, 2));
  const SelectionResult r =
      select_baseline(blocks, kLat, cons(4, 1), 2, BaselineAlgorithm::clubbing);
  ASSERT_EQ(r.cuts.size(), 2u);
  EXPECT_EQ(r.cuts[0].block_index, 1);
  EXPECT_EQ(r.cuts[1].block_index, 1);
}

TEST(BaselineSelect, SkipsClubsThatCouldNotIssueTogether) {
  // Two convex two-output clubs of one block, A = {a1, a2} and B = {b1, b2},
  // feed each other (a1 -> b2 and b1 -> a2). Collapsing both would leave a
  // cycle, so only one of them can become an instruction.
  Dfg g;
  const NodeId x = g.add_input();
  const NodeId y = g.add_input();
  const NodeId a1 = g.add_op(Opcode::mul);
  const NodeId b1 = g.add_op(Opcode::mul);
  const NodeId a2 = g.add_op(Opcode::add);
  const NodeId b2 = g.add_op(Opcode::add);
  for (const NodeId m : {a1, b1}) {
    g.add_edge(x, m);
    g.add_edge(y, m);
  }
  g.add_edge(a1, a2);
  g.add_edge(b1, a2);
  g.add_edge(b1, b2);
  g.add_edge(a1, b2);
  g.add_output(a2);
  g.add_output(b2);
  g.set_exec_freq(10.0);
  g.finalize();
  std::vector<Dfg> blocks{std::move(g)};

  const std::vector<BitVector> clubs = find_clubs(blocks[0], kLat, cons(4, 2));
  ASSERT_EQ(clubs.size(), 2u);
  for (const BitVector& club : clubs) {
    ASSERT_EQ(club.count(), 2u);
    ASSERT_EQ(compute_metrics(blocks[0], club, kLat).outputs, 2);
  }

  const SelectionResult r =
      select_baseline(blocks, kLat, cons(4, 2), 2, BaselineAlgorithm::clubbing);
  ASSERT_EQ(r.cuts.size(), 1u);
  EXPECT_GT(r.cuts[0].merit, 0.0);
  EXPECT_EQ(r.total_merit, r.cuts[0].merit);
}

TEST(Selection, IterativeBeatsOrMatchesBaselines) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 15;
    cfg.seed = seed * 11;
    std::vector<Dfg> blocks;
    blocks.push_back(random_dag(cfg));
    const Constraints c = cons(4, 2);
    const double iter = select_iterative(blocks, kLat, c, 4).total_merit;
    const double club =
        select_baseline(blocks, kLat, c, 4, BaselineAlgorithm::clubbing).total_merit;
    const double miso =
        select_baseline(blocks, kLat, c, 4, BaselineAlgorithm::max_miso).total_merit;
    EXPECT_GE(iter + 1e-9, club) << "seed " << seed;
    EXPECT_GE(iter + 1e-9, miso) << "seed " << seed;
  }
}

TEST(Speedup, Accounting) {
  EXPECT_DOUBLE_EQ(application_speedup(100.0, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(application_speedup(100.0, 0.0), 1.0);
  EXPECT_THROW(application_speedup(100.0, 100.0), Error);
  EXPECT_THROW(application_speedup(0.0, 0.0), Error);
}

}  // namespace
}  // namespace isex
