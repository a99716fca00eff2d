#include "dfg/dfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "core/search_tables.hpp"
#include "core/single_cut.hpp"
#include "dfg/collapse.hpp"
#include "dfg/cut.hpp"
#include "dfg/dot.hpp"
#include "dfg/random_dag.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "passes/pipeline.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

/// The paper's Fig. 4 example, reverse-topologically numbered 0..3:
///   3:mul feeds 2:shr and 1:add; 2:shr feeds 0:add; both adds are live out.
/// The cut {0, 3} is the paper's nonconvex example (path 3 -> 2 -> 0 with 2
/// outside). Node creation order makes the search decide 0, 1, 2, 3 — the
/// exact level order of the paper's Figs. 5 and 7.
struct Fig4 {
  Dfg g;
  NodeId n0, n1, n2, n3;
  Fig4() {
    const NodeId in_a = g.add_input("a");
    const NodeId in_b = g.add_input("b");
    const NodeId in_c = g.add_input("c");
    const NodeId in_d = g.add_input("d");
    const NodeId c2 = g.add_constant(2);
    n3 = g.add_op(Opcode::mul, "3:mul");
    n2 = g.add_op(Opcode::shr_s, "2:shr");
    n1 = g.add_op(Opcode::add, "1:add");
    n0 = g.add_op(Opcode::add, "0:add");
    g.add_edge(in_a, n3);
    g.add_edge(in_b, n3);
    g.add_edge(n3, n2);
    g.add_edge(c2, n2);
    g.add_edge(n3, n1);
    g.add_edge(in_c, n1);
    g.add_edge(n2, n0);
    g.add_edge(in_d, n0);
    g.add_output(n0, "out0");
    g.add_output(n1, "out1");
    g.finalize();
  }
  BitVector cut(std::initializer_list<NodeId> nodes) const {
    BitVector v(g.num_nodes());
    for (NodeId n : nodes) v.set(n.index);
    return v;
  }
};

TEST(Dfg, SearchOrderIsReverseTopological) {
  const Fig4 f;
  // Every node must appear after all of its descendants in the search order.
  const auto& order = f.g.search_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      EXPECT_FALSE(f.g.reaches(order[i], order[j]))
          << f.g.node(order[i]).label << " reaches later " << f.g.node(order[j]).label;
    }
  }
}

TEST(Dfg, Reachability) {
  const Fig4 f;
  EXPECT_TRUE(f.g.reaches(f.n3, f.n0));
  EXPECT_TRUE(f.g.reaches(f.n3, f.n1));
  EXPECT_TRUE(f.g.reaches(f.n2, f.n0));
  EXPECT_FALSE(f.g.reaches(f.n1, f.n2));
  EXPECT_FALSE(f.g.reaches(f.n1, f.n0));
  EXPECT_FALSE(f.g.reaches(f.n0, f.n3));
}

TEST(Dfg, Fig4DecisionOrderMatchesPaperNumbering) {
  const Fig4 f;
  std::vector<NodeId> decisions;
  for (NodeId n : f.g.search_order()) {
    const DfgNode& node = f.g.node(n);
    if (node.kind == NodeKind::op && !node.forbidden) decisions.push_back(n);
  }
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(decisions[0], f.n0);
  EXPECT_EQ(decisions[1], f.n1);
  EXPECT_EQ(decisions[2], f.n2);
  EXPECT_EQ(decisions[3], f.n3);
}

TEST(Dfg, CandidatesExcludeForbidden) {
  Dfg g;
  const NodeId in = g.add_input();
  const NodeId ld = g.add_forbidden_op(Opcode::load, "LD");
  const NodeId op = g.add_op(Opcode::add);
  g.add_edge(in, ld);
  g.add_edge(ld, op);
  g.add_output(op);
  g.finalize();
  EXPECT_EQ(g.candidates().size(), 1u);
  EXPECT_EQ(g.candidates()[0], op);
  EXPECT_EQ(g.op_nodes().size(), 2u);
}

TEST(Dfg, RejectsCycles) {
  Dfg g;
  const NodeId a = g.add_op(Opcode::add);
  const NodeId b = g.add_op(Opcode::add);
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.finalize(), Error);
}

TEST(CutMetrics, Fig4NonconvexCutDetected) {
  const Fig4 f;
  // {0, 3} is the paper's nonconvex example: path 3 -> 2 -> 0 with 2 outside.
  EXPECT_FALSE(compute_metrics(f.g, f.cut({f.n0, f.n3}), kLat).convex);
  EXPECT_FALSE(compute_metrics(f.g, f.cut({f.n0, f.n1, f.n3}), kLat).convex);
  // The full graph and connected subgraphs are convex.
  EXPECT_TRUE(compute_metrics(f.g, f.cut({f.n0, f.n1, f.n2, f.n3}), kLat).convex);
  EXPECT_TRUE(compute_metrics(f.g, f.cut({f.n1, f.n3}), kLat).convex);
  EXPECT_TRUE(compute_metrics(f.g, f.cut({f.n0, f.n2, f.n3}), kLat).convex);
}

TEST(CutMetrics, InputOutputCounts) {
  const Fig4 f;
  {
    // {3}: two external inputs; feeds 1 and 2 outside -> one output value.
    const CutMetrics m = compute_metrics(f.g, f.cut({f.n3}), kLat);
    EXPECT_EQ(m.inputs, 2);
    EXPECT_EQ(m.outputs, 1);
  }
  {
    // Whole graph: inputs a, b, c, d (the shift constant is free); both adds
    // are live out -> 2 outputs.
    const CutMetrics m = compute_metrics(f.g, f.cut({f.n0, f.n1, f.n2, f.n3}), kLat);
    EXPECT_EQ(m.inputs, 4);
    EXPECT_EQ(m.outputs, 2);
    EXPECT_EQ(m.num_ops, 4);
  }
  {
    // {1, 2}: inputs are the mul result (shared) and c; add1 is live out and
    // shr feeds node 0 outside -> 2 outputs.
    const CutMetrics m = compute_metrics(f.g, f.cut({f.n1, f.n2}), kLat);
    EXPECT_EQ(m.inputs, 2);
    EXPECT_EQ(m.outputs, 2);
  }
}

TEST(CutMetrics, ConstantsAreFree) {
  Dfg g;
  const NodeId in = g.add_input("x");
  const NodeId c = g.add_constant(7);
  const NodeId a = g.add_op(Opcode::add);
  g.add_edge(in, a);
  g.add_edge(c, a);
  g.add_output(a);
  g.finalize();
  BitVector cut(g.num_nodes());
  cut.set(a.index);
  const CutMetrics m = compute_metrics(g, cut, kLat);
  EXPECT_EQ(m.inputs, 1);  // the constant does not occupy a read port
  EXPECT_EQ(m.outputs, 1);
}

TEST(CutMetrics, LatencyModel) {
  // Chain add -> mul: sw = 1 + 2 = 3; hw = 0.27 + 0.80 = 1.07 -> 2 cycles.
  Dfg g;
  const NodeId in = g.add_input("x");
  const NodeId a = g.add_op(Opcode::add);
  const NodeId m_ = g.add_op(Opcode::mul);
  g.add_edge(in, a);
  g.add_edge(a, m_);
  g.add_output(m_);
  g.finalize();
  BitVector cut(g.num_nodes());
  cut.set(a.index);
  cut.set(m_.index);
  const CutMetrics m = compute_metrics(g, cut, kLat);
  EXPECT_EQ(m.sw_cycles, 3);
  EXPECT_NEAR(m.hw_critical, 1.07, 1e-9);
  EXPECT_EQ(m.hw_cycles, 2);
  EXPECT_DOUBLE_EQ(merit_of(m, 10.0), 10.0);  // (3 - 2) * freq
}

TEST(CutMetrics, ParallelOpsShareCycle) {
  // Two independent adds: sw 2, hw ceil(0.27) = 1 -> merit saves 1/exec.
  Dfg g;
  const NodeId i1 = g.add_input();
  const NodeId i2 = g.add_input();
  const NodeId a1 = g.add_op(Opcode::add);
  const NodeId a2 = g.add_op(Opcode::add);
  g.add_edge(i1, a1);
  g.add_edge(i2, a2);
  g.add_output(a1);
  g.add_output(a2);
  g.finalize();
  BitVector cut(g.num_nodes());
  cut.set(a1.index);
  cut.set(a2.index);
  const CutMetrics m = compute_metrics(g, cut, kLat);
  EXPECT_EQ(m.sw_cycles, 2);
  EXPECT_EQ(m.hw_cycles, 1);
  EXPECT_TRUE(m.convex);  // disconnected but perfectly legal (paper Sec. 4)
}

TEST(CutMetrics, EmptyCut) {
  const Fig4 f;
  const CutMetrics m = compute_metrics(f.g, BitVector(f.g.num_nodes()), kLat);
  EXPECT_EQ(m.num_ops, 0);
  EXPECT_EQ(m.hw_cycles, 0);
  EXPECT_TRUE(m.convex);
  EXPECT_DOUBLE_EQ(merit_of(m, 5.0), 0.0);
}

TEST(CutMetrics, RejectsForbiddenMember) {
  Dfg g;
  const NodeId ld = g.add_forbidden_op(Opcode::load, "LD");
  const NodeId op = g.add_op(Opcode::add);
  g.add_edge(ld, op);
  g.add_output(op);
  g.finalize();
  BitVector cut(g.num_nodes());
  cut.set(ld.index);
  EXPECT_THROW(compute_metrics(g, cut, kLat), Error);
  EXPECT_FALSE(is_feasible(g, cut, kLat, 4, 2));
}

TEST(Collapse, FusesCutAndPreservesPaths) {
  const Fig4 f;
  const CollapseResult r = collapse(f.g, f.cut({f.n1, f.n3}), "isex0");
  // New graph: inputs a,b + shr + add0 + output + super = 6 nodes.
  EXPECT_EQ(r.graph.num_nodes(), f.g.num_nodes() - 1);
  EXPECT_TRUE(r.graph.node(r.super).forbidden);
  // Path mul->shr survives through the super node: super reaches add0.
  EXPECT_TRUE(r.graph.reaches(r.super, r.old_to_new[f.n0.index]));
  EXPECT_TRUE(r.graph.reaches(r.super, r.old_to_new[f.n2.index]));
  // Members map to the super node.
  EXPECT_EQ(r.old_to_new[f.n1.index], r.super);
  EXPECT_EQ(r.old_to_new[f.n3.index], r.super);
}

TEST(Collapse, RejectsNonConvex) {
  const Fig4 f;
  EXPECT_THROW(collapse(f.g, f.cut({f.n0, f.n1, f.n3}), "x"), Error);
}

TEST(FromBlock, ExtractsOpsInputsOutputsConstants) {
  Module m("t");
  IrBuilder b(m, "f", 2);
  // v = (a + b) * 3;  w = v - a;  return w  (v also live out via w only)
  const ValueId v = b.mul(b.add(b.param(0), b.param(1)), b.konst(3));
  const ValueId w = b.sub(v, b.param(0));
  b.ret(w);
  verify_function(m, b.function());

  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry(), 10.0);
  EXPECT_DOUBLE_EQ(g.exec_freq(), 10.0);
  // Nodes: 2 inputs, 1 constant, 3 ops, 1 output (w feeds ret).
  EXPECT_EQ(g.candidates().size(), 3u);
  int inputs = 0, outputs = 0, constants = 0;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    switch (g.node(NodeId{i}).kind) {
      case NodeKind::input: ++inputs; break;
      case NodeKind::output: ++outputs; break;
      case NodeKind::constant: ++constants; break;
      default: break;
    }
  }
  EXPECT_EQ(inputs, 2);
  EXPECT_EQ(outputs, 1);
  EXPECT_EQ(constants, 1);
}

TEST(FromBlock, MemoryOpsForbiddenAndChained) {
  Module m("t");
  m.add_segment("buf", 8);
  IrBuilder b(m, "f", 1);
  const ValueId x = b.load(b.param(0));
  b.store(b.param(0), b.add(x, b.konst(1)));
  const ValueId y = b.load(b.param(0));
  b.ret(y);
  verify_function(m, b.function());

  const Dfg g = Dfg::from_block(m, b.function(), b.function().entry());
  // Only the add is a candidate.
  EXPECT_EQ(g.candidates().size(), 1u);
  // The second load must be ordered after the store (order edge).
  NodeId store_node{}, load2{};
  for (NodeId n : g.op_nodes()) {
    if (g.node(n).op == Opcode::store) store_node = n;
  }
  for (NodeId n : g.op_nodes()) {
    if (g.node(n).op == Opcode::load && g.reaches(store_node, n)) load2 = n;
  }
  EXPECT_TRUE(store_node.valid());
  EXPECT_TRUE(load2.valid());
}

TEST(FromBlock, RomHintsRespectOption) {
  Module m("t");
  const auto base = m.add_segment("table", 16, {1, 2, 3, 4}, true);
  IrBuilder b(m, "f", 1);
  const ValueId addr = b.add(b.konst(static_cast<std::int64_t>(base)), b.param(0));
  const InstrId ld = b.function().append_instr(b.insert_block(), Opcode::load, {addr}, {}, 1);
  b.ret(b.function().instr(ld).result);
  verify_function(m, b.function());

  const Dfg plain = Dfg::from_block(m, b.function(), b.function().entry());
  EXPECT_EQ(plain.candidates().size(), 1u);  // just the add

  DfgOptions opts;
  opts.allow_rom_loads = true;
  const Dfg romful = Dfg::from_block(m, b.function(), b.function().entry(), 1.0, opts);
  EXPECT_EQ(romful.candidates().size(), 2u);  // add + rom load
  bool saw_rom = false;
  for (NodeId n : romful.candidates()) saw_rom |= romful.node(n).rom_load;
  EXPECT_TRUE(saw_rom);
}

TEST(FromBlock, PhiResultsAreInputsAndPhiUsesAreLiveOut) {
  Module m("t");
  IrBuilder b(m, "f", 1);
  const BlockId head = b.new_block("head");
  const BlockId body = b.new_block("body");
  const BlockId exit = b.new_block("exit");
  b.br(head);
  b.set_insert(head);
  const ValueId acc = b.phi();
  b.add_incoming(acc, b.function().entry(), b.konst(0));
  b.br_if(b.lt_s(acc, b.param(0)), body, exit);
  b.set_insert(body);
  const ValueId next = b.add(acc, b.konst(3));
  b.add_incoming(acc, body, next);
  b.br(head);
  b.set_insert(exit);
  b.ret(acc);
  verify_function(m, b.function());

  const Dfg g = Dfg::from_block(m, b.function(), body);
  // body: add consumes phi (input) and constant; next is live-out (phi use).
  EXPECT_EQ(g.candidates().size(), 1u);
  const NodeId add_node = g.candidates()[0];
  bool has_output_succ = false;
  for (NodeId s : g.node(add_node).succs) {
    has_output_succ |= g.node(s).kind == NodeKind::output;
  }
  EXPECT_TRUE(has_output_succ);

  // head: compare consumes the phi input and feeds the terminator -> output.
  const Dfg gh = Dfg::from_block(m, b.function(), head);
  EXPECT_EQ(gh.candidates().size(), 1u);
}

TEST(RandomDag, GeneratesValidGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 15;
    cfg.seed = seed;
    const Dfg g = random_dag(cfg);
    EXPECT_TRUE(g.finalized());
    EXPECT_GE(g.candidates().size(), 1u);
    // Full candidate set must always be a legal metrics query.
    BitVector all(g.num_nodes());
    for (NodeId n : g.candidates()) all.set(n.index);
    const CutMetrics m = compute_metrics(g, all, kLat);
    EXPECT_GE(m.inputs, 0);
  }
}

/// The graphs the ClosureMasks checks read: random DAGs of one to eight
/// row words, every registry block with and without ROM loads admitted, and
/// each graph a CollapsedBlock passes through as Iterative fuses its best
/// 4/2 cuts.
const std::vector<Dfg>& row_check_graphs() {
  static const std::vector<Dfg> graphs = [] {
    std::vector<Dfg> out;
    for (const int ops : {18, 60, 140, 300}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        RandomDagConfig cfg;
        cfg.num_ops = ops;
        cfg.seed = seed * 57 + 7;
        out.push_back(random_dag(cfg));
      }
    }
    Constraints constraints;
    constraints.max_inputs = 4;
    constraints.max_outputs = 2;
    for (Workload& w : all_workloads()) {
      w.preprocess();
      for (const bool rom : {false, true}) {
        DfgOptions options;
        options.allow_rom_loads = rom;
        for (const Dfg& block : w.extract_dfgs(options)) {
          out.push_back(block);
          CollapsedBlock collapsed(block);
          for (int round = 0; round < 4; ++round) {
            const BitVector cut = find_best_cut(collapsed.graph(), kLat, constraints).cut;
            if (!cut.any()) break;
            collapsed.collapse(cut, "isex" + std::to_string(round));
            out.push_back(collapsed.graph());
          }
        }
      }
    }
    return out;
  }();
  return graphs;
}

/// Whether `row` holds exactly the set `expected`. A BitVector's bits past
/// its size are zero, so this also checks the row's tail.
bool row_is(const std::uint64_t* row, const BitVector& expected) {
  return std::equal(row, row + expected.num_words(), expected.words());
}

TEST(ClosureMasks, AdjacencyMasksMatchTheEdgeLists) {
  for (const Dfg& g : row_check_graphs()) {
    const std::size_t n = g.num_nodes();
    ASSERT_EQ(g.row_words(), (n + 63) / 64) << g.name();
    for (std::size_t i = 0; i < n; ++i) {
      const DfgNode& node = g.node(NodeId{i});
      BitVector desc(n), data_succs(n);
      std::deque<NodeId> frontier(node.succs.begin(), node.succs.end());
      while (!frontier.empty()) {
        const NodeId v = frontier.front();
        frontier.pop_front();
        if (desc.test(v.index)) continue;
        desc.set(v.index);
        for (const NodeId s : g.node(v).succs) frontier.push_back(s);
      }
      for (std::size_t j = 0; j < node.succs.size(); ++j) {
        if (node.succ_is_data[j]) data_succs.set(node.succs[j].index);
      }
      EXPECT_TRUE(row_is(g.desc_row(NodeId{i}), desc))
          << g.name() << " node " << i << " descendants " << desc.to_string();
      EXPECT_TRUE(row_is(g.data_succ_row(NodeId{i}), data_succs))
          << g.name() << " node " << i << " data successors " << data_succs.to_string();
    }
  }
}

TEST(ClosureMasks, RawWordsMirrorTheBitApi) {
  for (const Dfg& g : row_check_graphs()) {
    for (std::size_t a = 0; a < g.num_nodes(); ++a) {
      const std::uint64_t* row = g.desc_row(NodeId{a});
      for (std::size_t b = 0; b < g.num_nodes(); ++b) {
        const bool bit = (row[b >> 6] >> (b & 63) & 1) != 0;
        if (g.reaches(NodeId{a}, NodeId{b}) != bit) {
          ADD_FAILURE() << g.name() << ": reaches(" << a << ", " << b << ") disagrees";
        }
      }
    }
  }
}

TEST(ClosureMasks, InputCsrListsTheCountableDataPredecessors) {
  Dfg edges;
  const NodeId in = edges.add_input("in");
  const NodeId c7 = edges.add_constant(7);
  const NodeId load = edges.add_forbidden_op(Opcode::load);
  const NodeId store = edges.add_forbidden_op(Opcode::store);
  const NodeId add = edges.add_op(Opcode::add);
  const NodeId mul = edges.add_op(Opcode::mul);
  edges.add_edge(in, add);
  edges.add_edge(in, add);  // deduplicated
  edges.add_edge(c7, add);  // hardwired
  edges.add_edge(load, mul, /*order_only=*/true);
  edges.add_edge(load, mul);  // the data edge absorbs the ordering edge
  edges.add_edge(add, mul);
  edges.add_edge(load, store, /*order_only=*/true);
  edges.add_output(mul);
  edges.finalize();
  {
    const SearchTables t = SearchTables::build(edges, kLat);
    const auto inputs_of = [&](NodeId n) {
      std::vector<std::pair<std::uint32_t, std::uint8_t>> list;
      for (std::uint32_t j = t.in_off[n.index]; j < t.in_off[n.index + 1]; ++j) {
        list.emplace_back(t.in_node[j], t.in_perm[j]);
      }
      return list;
    };
    using List = std::vector<std::pair<std::uint32_t, std::uint8_t>>;
    EXPECT_EQ(inputs_of(add), (List{{in.index, 1}}));
    EXPECT_EQ(inputs_of(mul), (List{{load.index, 1}, {add.index, 0}}));
    EXPECT_EQ(inputs_of(store), List{});
  }

  std::vector<const Dfg*> graphs{&edges};
  for (const Dfg& g : row_check_graphs()) graphs.push_back(&g);
  for (const Dfg* g : graphs) {
    const std::size_t n = g->num_nodes();
    const SearchTables t = SearchTables::build(*g, kLat);
    EXPECT_EQ(t.desc_rows, g->desc_row(NodeId{0u})) << g->name() << ": rows are borrowed";
    EXPECT_EQ(t.data_succ_rows, g->data_succ_row(NodeId{0u})) << g->name();
    // Expected from the producers' successor lists: node -> producer -> permanent.
    std::vector<std::map<std::uint32_t, std::uint8_t>> expected(n);
    for (std::size_t p = 0; p < n; ++p) {
      const DfgNode& producer = g->node(NodeId{p});
      if (producer.kind == NodeKind::constant) continue;
      const bool permanent = producer.kind == NodeKind::input || producer.forbidden;
      for (std::size_t k = 0; k < producer.succs.size(); ++k) {
        if (producer.succ_is_data[k]) {
          expected[producer.succs[k].index][static_cast<std::uint32_t>(p)] = permanent ? 1 : 0;
        }
      }
    }
    ASSERT_EQ(t.in_off.size(), n + 1) << g->name();
    for (std::size_t i = 0; i < n; ++i) {
      std::map<std::uint32_t, std::uint8_t> listed;
      for (std::uint32_t j = t.in_off[i]; j < t.in_off[i + 1]; ++j) {
        listed[t.in_node[j]] = t.in_perm[j];
      }
      EXPECT_EQ(t.in_off[i + 1] - t.in_off[i], listed.size()) << g->name() << " node " << i;
      EXPECT_EQ(listed, expected[i]) << g->name() << " node " << i;
    }
  }
}

TEST(Dot, RendersNodesAndCuts) {
  const Fig4 f;
  const BitVector cut = f.cut({f.n1, f.n3});
  const std::string dot = to_dot(f.g, std::span<const BitVector>{&cut, 1});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("3:mul"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

}  // namespace
}  // namespace isex
