#include "dfg/cut.hpp"

#include <cmath>
#include <unordered_set>
#include <vector>

namespace isex {

double node_hw_delay(const Dfg& g, NodeId n, const LatencyModel& latency) {
  const DfgNode& node = g.node(n);
  if (node.rom_load) return latency.rom_hw_delay();
  return latency.hw_delay(node.op);
}

int node_sw_cycles(const Dfg& g, NodeId n, const LatencyModel& latency) {
  return latency.sw_cycles(g.node(n).op);
}

bool is_convex(const Dfg& g, const BitVector& members) {
  // Nonconvex iff some node outside S is both reachable from S and reaches S.
  BitVector outside(g.num_nodes());
  members.for_each([&](std::size_t i) { outside.or_words(g.desc_row(NodeId{i})); });
  outside -= members;
  const std::uint64_t* s = members.words();
  bool convex = true;
  outside.for_each([&](std::size_t v) {
    const std::uint64_t* d = g.desc_row(NodeId{v});
    for (std::size_t w = 0; convex && w < g.row_words(); ++w) convex = (d[w] & s[w]) == 0;
  });
  return convex;
}

CutMetrics compute_metrics(const Dfg& g, const BitVector& members, const LatencyModel& latency) {
  ISEX_CHECK(members.size() == g.num_nodes(), "cut domain mismatch");
  CutMetrics m;

  std::unordered_set<std::uint32_t> producers;
  std::vector<double> cp(g.num_nodes(), 0.0);

  // Forward order = reverse of the search order (producers first), so the
  // critical-path DP sees predecessors before consumers.
  const auto& order = g.search_order();
  for (std::size_t k = order.size(); k-- > 0;) {
    const NodeId n = order[k];
    if (!members.test(n.index)) continue;
    const DfgNode& node = g.node(n);
    ISEX_CHECK(node.kind == NodeKind::op && !node.forbidden,
               "cut contains a non-candidate node: " + node.label);
    ++m.num_ops;
    m.sw_cycles += node_sw_cycles(g, n, latency);
    m.area_macs += node.rom_load ? latency.rom_area_per_word() * node.rom_words
                                 : latency.area_macs(node.op);

    double longest_pred = 0.0;
    for (std::size_t j = 0; j < node.preds.size(); ++j) {
      const NodeId p = node.preds[j];
      if (!node.pred_is_data[j]) continue;
      if (members.test(p.index)) {
        longest_pred = std::max(longest_pred, cp[p.index]);
        continue;
      }
      if (g.node(p).kind == NodeKind::constant) continue;  // hardwired
      producers.insert(p.index);
    }
    cp[n.index] = longest_pred + node_hw_delay(g, n, latency);
    m.hw_critical = std::max(m.hw_critical, cp[n.index]);

    bool is_output = false;
    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      if (!node.succ_is_data[j]) continue;
      if (!members.test(node.succs[j].index)) is_output = true;
    }
    if (is_output) ++m.outputs;
  }

  m.inputs = static_cast<int>(producers.size());
  m.convex = is_convex(g, members);
  m.hw_cycles = m.num_ops == 0
                    ? 0
                    : std::max(1, static_cast<int>(std::ceil(m.hw_critical - 1e-9)));
  return m;
}

double merit_of(const CutMetrics& m, double exec_freq) {
  return exec_freq * (m.sw_cycles - m.hw_cycles);
}

bool is_feasible(const Dfg& g, const BitVector& members, const LatencyModel& latency,
                 int max_inputs, int max_outputs) {
  for (std::size_t i : members.set_bits()) {
    const DfgNode& n = g.node(NodeId{i});
    if (n.kind != NodeKind::op || n.forbidden) return false;
  }
  const CutMetrics m = compute_metrics(g, members, latency);
  return m.convex && m.inputs <= max_inputs && m.outputs <= max_outputs;
}

}  // namespace isex
