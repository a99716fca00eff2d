// Property tests for the cache key material: the fingerprint separates
// distinct graphs, tracks every result-relevant input (execution frequency,
// opcodes, literals) and ignores cosmetic labels; it distinguishes permuted
// isomorphs so a cached cut is never served with misindexed bits.
#include "cache/fingerprint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dfg/random_dag.hpp"

namespace isex {
namespace {

// The Fig. 4 example graph with its nine non-output nodes created in the
// order given by `order` (a permutation of 0..8); outputs are appended in
// the order given by `out_first`. Every realization is the same logical
// graph under a node-id relabeling.
//
// Logical ids: 0..3 inputs a..d, 4 constant 2, 5 mul, 6 shr, 7 add1, 8 add0.
Dfg fig4_permuted(const std::vector<int>& order, bool out_first) {
  std::vector<NodeId> id(9);
  Dfg g;
  for (const int logical : order) {
    switch (logical) {
      case 0: id[0] = g.add_input("a"); break;
      case 1: id[1] = g.add_input("b"); break;
      case 2: id[2] = g.add_input("c"); break;
      case 3: id[3] = g.add_input("d"); break;
      case 4: id[4] = g.add_constant(2); break;
      case 5: id[5] = g.add_op(Opcode::mul); break;
      case 6: id[6] = g.add_op(Opcode::shr_s); break;
      case 7: id[7] = g.add_op(Opcode::add); break;
      case 8: id[8] = g.add_op(Opcode::add); break;
    }
  }
  g.add_edge(id[0], id[5]);
  g.add_edge(id[1], id[5]);
  g.add_edge(id[5], id[6]);
  g.add_edge(id[4], id[6]);
  g.add_edge(id[5], id[7]);
  g.add_edge(id[2], id[7]);
  g.add_edge(id[6], id[8]);
  g.add_edge(id[3], id[8]);
  if (out_first) {
    g.add_output(id[8]);
    g.add_output(id[7]);
  } else {
    g.add_output(id[7]);
    g.add_output(id[8]);
  }
  g.finalize();
  return g;
}

std::vector<int> identity_order() { return {0, 1, 2, 3, 4, 5, 6, 7, 8}; }

TEST(Fingerprint, StableAcrossCalls) {
  const Dfg g = fig4_permuted(identity_order(), false);
  const DfgFingerprint a = dfg_fingerprint(g);
  const DfgFingerprint b = dfg_fingerprint(g);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.exact, 0u);
}

TEST(Fingerprint, ExactComponentSeparatesPermutedIsomorphs) {
  // A permuted isomorph carries the same structure but its node ids — and
  // therefore the meaning of a cut bit vector — differ. The exact hash must
  // keep such graphs from sharing one memo entry.
  const Dfg original = fig4_permuted(identity_order(), false);
  const Dfg permuted = fig4_permuted({8, 7, 6, 5, 4, 3, 2, 1, 0}, false);
  EXPECT_NE(dfg_fingerprint(original).exact, dfg_fingerprint(permuted).exact);
}

TEST(Fingerprint, DistinctRandomDagsHashDistinct) {
  std::set<std::uint64_t> exact;
  int generated = 0;
  for (int num_ops = 8; num_ops <= 15; ++num_ops) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RandomDagConfig cfg;
      cfg.num_ops = num_ops;
      cfg.seed = seed * 7919;
      exact.insert(dfg_fingerprint(random_dag(cfg)).exact);
      ++generated;
    }
  }
  EXPECT_EQ(static_cast<int>(exact.size()), generated);
}

TEST(Fingerprint, ExecutionFrequencyIsPartOfTheKey) {
  // Merit is frequency-weighted, so the same topology at a different
  // profile weight must not share a memo entry.
  Dfg a = fig4_permuted(identity_order(), false);
  Dfg b = fig4_permuted(identity_order(), false);
  b.set_exec_freq(17.0);
  EXPECT_NE(dfg_fingerprint(a).exact, dfg_fingerprint(b).exact);
}

TEST(Fingerprint, OpcodeAndConstantChangesChangeTheHash) {
  Dfg base = fig4_permuted(identity_order(), false);

  std::vector<int> order = identity_order();
  Dfg other_op = [&] {
    Dfg g;
    std::vector<NodeId> id(9);
    for (const int logical : order) {
      switch (logical) {
        case 0: id[0] = g.add_input("a"); break;
        case 1: id[1] = g.add_input("b"); break;
        case 2: id[2] = g.add_input("c"); break;
        case 3: id[3] = g.add_input("d"); break;
        case 4: id[4] = g.add_constant(3); break;  // literal 2 -> 3
        case 5: id[5] = g.add_op(Opcode::mul); break;
        case 6: id[6] = g.add_op(Opcode::shr_s); break;
        case 7: id[7] = g.add_op(Opcode::add); break;
        case 8: id[8] = g.add_op(Opcode::add); break;
      }
    }
    g.add_edge(id[0], id[5]);
    g.add_edge(id[1], id[5]);
    g.add_edge(id[5], id[6]);
    g.add_edge(id[4], id[6]);
    g.add_edge(id[5], id[7]);
    g.add_edge(id[2], id[7]);
    g.add_edge(id[6], id[8]);
    g.add_edge(id[3], id[8]);
    g.add_output(id[7]);
    g.add_output(id[8]);
    g.finalize();
    return g;
  }();
  EXPECT_NE(dfg_fingerprint(base), dfg_fingerprint(other_op));
}

TEST(Fingerprint, CosmeticLabelsDoNotAffectTheHash) {
  Dfg a = fig4_permuted(identity_order(), false);
  Dfg b = fig4_permuted(identity_order(), false);
  b.set_name("renamed");
  b.node_mutable(NodeId(std::size_t{0})).label = "different-label";
  EXPECT_EQ(dfg_fingerprint(a), dfg_fingerprint(b));
}

TEST(ModelSignatures, TrackEveryRelevantField) {
  const LatencyModel standard = LatencyModel::standard_018um();
  EXPECT_EQ(latency_signature(standard), latency_signature(LatencyModel::standard_018um()));

  LatencyModel tweaked = LatencyModel::standard_018um();
  tweaked.set_cost(Opcode::add, OpCost{2, 0.27, 0.030});
  EXPECT_NE(latency_signature(standard), latency_signature(tweaked));

  Constraints a;
  Constraints b = a;
  EXPECT_EQ(constraints_signature(a), constraints_signature(b));
  b.max_outputs = 1;
  EXPECT_NE(constraints_signature(a), constraints_signature(b));
  b = a;
  b.search_budget = 1000;
  EXPECT_NE(constraints_signature(a), constraints_signature(b));
  b = a;
  b.enable_pruning = false;
  EXPECT_NE(constraints_signature(a), constraints_signature(b));

  DfgOptions plain;
  DfgOptions rom;
  rom.allow_rom_loads = true;
  EXPECT_NE(dfg_options_signature(plain), dfg_options_signature(rom));
}

}  // namespace
}  // namespace isex
