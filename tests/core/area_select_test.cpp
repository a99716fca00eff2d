#include "core/area_select.hpp"

#include <gtest/gtest.h>

#include "core/iterative_select.hpp"
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

/// Block with `chains` independent mul+add chains: each candidate cut costs
/// area(mul) + area(add) = 0.43 MACs and saves 1 cycle per execution.
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

TEST(AreaSelect, UnlimitedBudgetMatchesIterative) {
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 2));
  blocks.push_back(chains_block(3.0, 1));
  AreaSelectOptions opts;
  opts.max_area_macs = 100.0;
  opts.num_instructions = 8;
  const SelectionResult area = select_area_constrained(blocks, kLat, cons(4, 1), opts);
  const SelectionResult iter = select_iterative(blocks, kLat, cons(4, 1), 8);
  EXPECT_DOUBLE_EQ(area.total_merit, iter.total_merit);
  EXPECT_EQ(area.cuts.size(), iter.cuts.size());
}

TEST(AreaSelect, ZeroBudgetSelectsNothing) {
  std::vector<Dfg> blocks{chains_block(10.0, 2)};
  AreaSelectOptions opts;
  opts.max_area_macs = 0.0;
  const SelectionResult r = select_area_constrained(blocks, kLat, cons(4, 1), opts);
  EXPECT_TRUE(r.cuts.empty());
  EXPECT_DOUBLE_EQ(r.total_merit, 0.0);
}

TEST(AreaSelect, BudgetCapsTotalArea) {
  std::vector<Dfg> blocks{chains_block(10.0, 3)};
  AreaSelectOptions opts;
  opts.max_area_macs = 0.9;  // each chain cut costs ~0.43 MACs -> at most 2 fit
  opts.num_instructions = 8;
  const SelectionResult r = select_area_constrained(blocks, kLat, cons(4, 1), opts);
  double area = 0.0;
  for (const SelectedCut& sc : r.cuts) area += sc.metrics.area_macs;
  EXPECT_LE(area, 0.9 + 1e-9);
  EXPECT_EQ(r.cuts.size(), 2u);
}

TEST(AreaSelect, PrefersMeritPerAreaUnderPressure) {
  // Hot block (freq 50) and cold block (freq 1) with identical cuts: under
  // a one-cut budget the hot one must win.
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(1.0, 1));
  blocks.push_back(chains_block(50.0, 1));
  AreaSelectOptions opts;
  opts.max_area_macs = 0.5;  // exactly one chain fits
  const SelectionResult r = select_area_constrained(blocks, kLat, cons(4, 1), opts);
  ASSERT_EQ(r.cuts.size(), 1u);
  EXPECT_EQ(r.cuts[0].block_index, 1);
  EXPECT_DOUBLE_EQ(r.total_merit, 50.0);
}

TEST(AreaSelect, InstructionCapStillHolds) {
  std::vector<Dfg> blocks{chains_block(10.0, 4)};
  AreaSelectOptions opts;
  opts.max_area_macs = 100.0;
  opts.num_instructions = 2;
  const SelectionResult r = select_area_constrained(blocks, kLat, cons(4, 1), opts);
  EXPECT_EQ(r.cuts.size(), 2u);
}

TEST(AreaSelect, MonotoneInBudget) {
  RandomDagConfig cfg;
  cfg.num_ops = 16;
  cfg.seed = 99;
  std::vector<Dfg> blocks{random_dag(cfg)};
  double prev = -1.0;
  for (const double budget : {0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
    AreaSelectOptions opts;
    opts.max_area_macs = budget;
    const SelectionResult r = select_area_constrained(blocks, kLat, cons(4, 2), opts);
    EXPECT_GE(r.total_merit, prev - 1e-9) << "budget " << budget;
    prev = r.total_merit;
    double area = 0.0;
    for (const SelectedCut& sc : r.cuts) area += sc.metrics.area_macs;
    EXPECT_LE(area, budget + 1e-9);
  }
}

TEST(AreaSelect, AGridTooFineToTabulateIsAnErrorNotAWrappedTable) {
  // At a 1e-300-MAC grid the cell counts saturate at 2^63 - 1, so the
  // table's size would wrap past SIZE_MAX to a short table; the knapsack
  // refuses instead.
  const std::vector<double> values{3.0};
  const std::vector<double> areas{0.5};
  EXPECT_THROW(knapsack_select_indices(values, areas, 1.0, 1e-300, 1), Error);
}

}  // namespace
}  // namespace isex
