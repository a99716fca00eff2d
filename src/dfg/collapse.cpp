#include "dfg/collapse.hpp"

#include "dfg/cut.hpp"

namespace isex {

CollapseResult collapse(const Dfg& g, const BitVector& members, const std::string& label) {
  ISEX_CHECK(members.size() == g.num_nodes(), "collapse: domain mismatch");
  ISEX_CHECK(members.any(), "collapse: empty cut");
  ISEX_CHECK(is_convex(g, members), "collapse: cut is not convex");

  CollapseResult r;
  r.graph.set_name(g.name());
  r.graph.set_exec_freq(g.exec_freq());
  r.old_to_new.assign(g.num_nodes(), NodeId{});

  // Copy survivors (preserving order), then append the super node. A
  // survivor keeps every field of its source; only its edges are re-created.
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    if (!members.test(i)) r.old_to_new[i] = r.graph.copy_node(g.node(NodeId{i}));
  }

  r.super = r.graph.add_forbidden_op(Opcode::custom, label);
  members.for_each([&](std::size_t i) { r.old_to_new[i] = r.super; });

  // Re-create edges, fusing and deduplicating through old_to_new.
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const DfgNode& src = g.node(NodeId{i});
    for (std::size_t k = 0; k < src.succs.size(); ++k) {
      const NodeId from = r.old_to_new[i];
      const NodeId to = r.old_to_new[src.succs[k].index];
      if (from == to) continue;  // internal edge of the cut
      r.graph.add_edge(from, to, src.succ_is_data[k] == 0);
    }
  }

  r.graph.finalize();
  return r;
}

BitVector CollapsedBlock::to_original(const BitVector& cut) const {
  if (!collapsed_) return cut;
  BitVector mapped(current_of_.size());
  for (std::size_t i = 0; i < current_of_.size(); ++i) {
    if (cut.test(current_of_[i].index)) mapped.set(i);
  }
  return mapped;
}

void CollapsedBlock::collapse(const BitVector& cut, const std::string& label) {
  CollapseResult r = isex::collapse(graph(), cut, label);
  if (collapsed_) {
    for (NodeId& n : current_of_) n = r.old_to_new[n.index];
  } else {
    current_of_ = std::move(r.old_to_new);
  }
  collapsed_ = std::move(r.graph);
}

}  // namespace isex
