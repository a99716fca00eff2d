#include "core/multi_cut.hpp"

#include <gtest/gtest.h>

#include "core/single_cut.hpp"
#include "dfg/random_dag.hpp"

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

/// Two independent mul->add chains; under Nout=1 each chain is one cut.
Dfg two_chains() {
  Dfg g;
  for (int i = 0; i < 2; ++i) {
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
  g.finalize();
  return g;
}

TEST(MultiCut, SingleCutModeMatchesSingleEnumerator) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 10;
    cfg.seed = seed;
    const Dfg g = random_dag(cfg);
    const Constraints c = cons(3, 2);
    const SingleCutResult single = find_best_cut(g, kLat, c);
    const MultiCutResult multi = find_best_cuts(g, kLat, c, 1);
    EXPECT_DOUBLE_EQ(single.merit, multi.total_merit) << "seed " << seed;
  }
}

TEST(MultiCut, TwoCutsCaptureBothChains) {
  const Dfg g = two_chains();
  // Nout=1 forbids a joint cut; two cuts capture one chain each (merit 1+1).
  const MultiCutResult r = find_best_cuts(g, kLat, cons(4, 1), 2);
  ASSERT_EQ(r.cuts.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_merit, 2.0);
  EXPECT_TRUE(r.cuts[0].disjoint_with(r.cuts[1]));
  EXPECT_TRUE(cuts_jointly_schedulable(g, r.cuts));

  const MultiCutResult one = find_best_cuts(g, kLat, cons(4, 1), 1);
  EXPECT_DOUBLE_EQ(one.total_merit, 1.0);
}

TEST(MultiCut, ReturnedCutsAreIndividuallyFeasible) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 12;
    cfg.seed = seed * 13;
    const Dfg g = random_dag(cfg);
    const Constraints c = cons(3, 1);
    const MultiCutResult r = find_best_cuts(g, kLat, c, 3);
    double merit_sum = 0.0;
    for (const BitVector& cut : r.cuts) {
      const CutMetrics m = compute_metrics(g, cut, kLat);
      EXPECT_TRUE(m.convex) << "seed " << seed;
      EXPECT_LE(m.inputs, 3) << "seed " << seed;
      EXPECT_LE(m.outputs, 1) << "seed " << seed;
      merit_sum += merit_of(m, g.exec_freq());
    }
    EXPECT_NEAR(merit_sum, r.total_merit, 1e-9) << "seed " << seed;
    EXPECT_TRUE(cuts_jointly_schedulable(g, r.cuts)) << "seed " << seed;
  }
}

TEST(MultiCut, RejectsMutuallyDependentCuts) {
  // p -> q and r -> s. The assignment {p,s} / {q,r} would deadlock the
  // quotient graph (cut1 feeds cut2 which feeds cut1). Force the situation:
  // only muls are worth picking, wired so the profitable pairing is illegal.
  Dfg g;
  const NodeId i1 = g.add_input();
  const NodeId i2 = g.add_input();
  const NodeId p = g.add_op(Opcode::mul, "p");
  const NodeId q = g.add_op(Opcode::mul, "q");
  const NodeId r = g.add_op(Opcode::mul, "r");
  const NodeId s = g.add_op(Opcode::mul, "s");
  g.add_edge(i1, p);
  g.add_edge(i2, p);
  g.add_edge(p, q);
  g.add_edge(i1, q);
  g.add_edge(i2, r);
  g.add_edge(i1, r);
  g.add_edge(r, s);
  g.add_edge(i2, s);
  g.add_output(q);
  g.add_output(s);
  g.finalize();

  // Every returned pair must be schedulable regardless of merit.
  for (int m = 1; m <= 3; ++m) {
    const MultiCutResult res = find_best_cuts(g, kLat, cons(2, 1), m);
    EXPECT_TRUE(cuts_jointly_schedulable(g, res.cuts)) << "m=" << m;
  }
  // Direct check of the reference on the illegal pairing.
  BitVector c1(g.num_nodes()), c2(g.num_nodes());
  c1.set(p.index);
  c1.set(s.index);
  c2.set(q.index);
  c2.set(r.index);
  const BitVector cuts[] = {c1, c2};
  EXPECT_FALSE(cuts_jointly_schedulable(g, cuts));
}

TEST(MultiCut, MoreCutsNeverHurt) {
  for (std::uint64_t seed = 30; seed <= 40; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 10;
    cfg.seed = seed;
    const Dfg g = random_dag(cfg);
    double prev = -1.0;
    for (int m = 1; m <= 3; ++m) {
      const MultiCutResult r = find_best_cuts(g, kLat, cons(2, 1), m);
      EXPECT_GE(r.total_merit, prev - 1e-9) << "seed " << seed << " m " << m;
      prev = r.total_merit;
    }
  }
}

/// Exhaustive assignment reference for tiny graphs: every node gets a label
/// in {none, cut0 .. cutM-1}.
double brute_force_multi(const Dfg& g, const Constraints& c, int m) {
  const auto& cand = g.candidates();
  ISEX_CHECK(cand.size() <= 8, "too many candidates for exhaustive multi");
  std::vector<int> label(cand.size(), -1);
  double best = 0.0;
  const auto eval = [&]() {
    std::vector<BitVector> cuts(m, BitVector(g.num_nodes()));
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (label[i] >= 0) cuts[static_cast<std::size_t>(label[i])].set(cand[i].index);
    }
    double total = 0.0;
    std::vector<BitVector> nonempty;
    for (const BitVector& cut : cuts) {
      if (cut.none()) continue;
      const CutMetrics met = compute_metrics(g, cut, kLat);
      if (!met.convex || met.inputs > c.max_inputs || met.outputs > c.max_outputs) return;
      total += merit_of(met, g.exec_freq());
      nonempty.push_back(cut);
    }
    if (!cuts_jointly_schedulable(g, nonempty)) return;
    if (total > best) best = total;
  };
  const std::function<void(std::size_t)> rec = [&](std::size_t i) {
    if (i == cand.size()) {
      eval();
      return;
    }
    for (int l = -1; l < m; ++l) {
      label[i] = l;
      rec(i + 1);
    }
    label[i] = -1;
  };
  rec(0);
  return best;
}

TEST(MultiCut, MatchesBruteForceOnTinyGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 7;
    cfg.forbidden_fraction = 0.0;
    cfg.seed = seed * 5 + 1;
    const Dfg g = random_dag(cfg);
    for (int m = 1; m <= 2; ++m) {
      const Constraints c = cons(2, 1);
      const MultiCutResult fast = find_best_cuts(g, kLat, c, m);
      const double ref = brute_force_multi(g, c, m);
      EXPECT_NEAR(fast.total_merit, ref, 1e-9) << "seed " << seed << " m " << m;
    }
  }
}

}  // namespace
}  // namespace isex
