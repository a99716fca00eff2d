// Dfg::finalize() orders the nodes by Kahn's algorithm, smallest ready id
// first, and every search walks the reverse of that order. The order is
// checked against a direct reference on graphs whose ids are not in
// topological order, and its cost is bounded on a wide graph, where a
// ready list re-sorted on every pop made finalize O(V^2 log V).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../support/thread_cpu.hpp"
#include "dfg/random_dag.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

/// The search order by definition: repeatedly emit the smallest id whose
/// predecessors are all emitted, then keep op and output nodes, reversed.
std::vector<NodeId> reference_search_order(const Dfg& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> missing(n);
  std::vector<bool> emitted(n, false);
  for (std::size_t i = 0; i < n; ++i) missing[i] = g.node(NodeId{i}).preds.size();
  std::vector<NodeId> forward;
  while (forward.size() < n) {
    std::size_t next = 0;
    while (emitted[next] || missing[next] != 0) ++next;
    emitted[next] = true;
    forward.push_back(NodeId{next});
    for (const NodeId s : g.node(NodeId{next}).succs) --missing[s.index];
  }
  std::vector<NodeId> order;
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
    const NodeKind kind = g.node(*it).kind;
    if (kind == NodeKind::op || kind == NodeKind::output) order.push_back(*it);
  }
  return order;
}

/// `g` with its node ids shuffled: the same graph, ids no longer topological.
Dfg shuffled_ids(const Dfg& g, std::uint64_t seed) {
  std::vector<std::size_t> order(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  Dfg out;
  std::vector<NodeId> id(g.num_nodes());
  for (const std::size_t old : order) id[old] = out.copy_node(g.node(NodeId{old}));
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const DfgNode& node = g.node(NodeId{i});
    for (std::size_t k = 0; k < node.succs.size(); ++k) {
      out.add_edge(id[i], id[node.succs[k].index], node.succ_is_data[k] == 0);
    }
  }
  out.finalize();
  return out;
}

/// `n` inputs, each feeding its own add, each add feeding an output: every
/// input is ready at once, so the ready list starts n long.
Dfg wide_graph(int n) {
  Dfg g;
  for (int i = 0; i < n; ++i) g.add_output(g.add_op(Opcode::add));
  for (int i = 0; i < n; ++i) {
    g.add_edge(g.add_input(), NodeId{static_cast<std::size_t>(2 * i)});
  }
  g.finalize();
  return g;
}

TEST(DfgFinalize, SearchOrderIsTheSmallestIdFirstKahnOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 10 + static_cast<int>(seed % 30);
    cfg.seed = seed;
    const Dfg g = shuffled_ids(random_dag(cfg), seed * 31);
    EXPECT_EQ(g.search_order(), reference_search_order(g)) << "seed " << seed;
  }
  for (const char* name : {"adpcmdecode", "blowfish", "idct"}) {
    Workload w = find_workload(name);
    w.preprocess();
    for (const Dfg& g : w.extract_dfgs()) {
      EXPECT_EQ(g.search_order(), reference_search_order(g)) << g.name();
    }
  }
  const Dfg wide = wide_graph(300);
  EXPECT_EQ(wide.search_order(), reference_search_order(wide));
}

TEST(DfgFinalize, WideGraphFinalizesWithinItsBound) {
  // 6,000 nodes, 2,000 of them ready at the start. A heap finalizes this in
  // ~5 ms of one core (Release, 4-vCPU VM); re-sorting the ready list on
  // every pop took 42-53 ms.
  Dfg g = wide_graph(2000);
  const double ms = best_of_three_ms([&] { g.finalize(); });
  EXPECT_LE(ms, 25.0) << "finalize of a 6,000-node wide graph";
  EXPECT_EQ(g.search_order().size(), 4000u);
}

}  // namespace
}  // namespace isex
