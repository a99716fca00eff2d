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

  // Copy survivors (preserving order), then append the super node.
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const NodeId n{i};
    if (members.test(i)) continue;
    const DfgNode& src = g.node(n);
    NodeId nid;
    switch (src.kind) {
      case NodeKind::constant:
        nid = r.graph.add_constant(src.imm);
        break;
      case NodeKind::input:
        nid = r.graph.add_input(src.label);
        break;
      case NodeKind::output: {
        // outputs get re-added after their producer exists; reserve by
        // creating a placeholder input we fix below is messy — instead,
        // create as op and fix kind.
        nid = r.graph.add_op(src.op, src.label);
        DfgNode& fixed = r.graph.node_mutable(nid);
        fixed.kind = NodeKind::output;
        fixed.forbidden = true;
        break;
      }
      case NodeKind::op: {
        nid = src.forbidden ? r.graph.add_forbidden_op(src.op, src.label)
                            : r.graph.add_op(src.op, src.label);
        DfgNode& fixed = r.graph.node_mutable(nid);
        fixed.instr = src.instr;
        fixed.value = src.value;
        fixed.imm = src.imm;
        fixed.rom_load = src.rom_load;
        break;
      }
    }
    r.old_to_new[i] = nid;
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

CollapsedBlock::CollapsedBlock(const Dfg& original)
    : original_nodes_(original.num_nodes()), current_(original), origin_(original.num_nodes()) {
  for (std::size_t i = 0; i < origin_.size(); ++i) origin_[i] = {i};
}

BitVector CollapsedBlock::to_original(const BitVector& cut) const {
  BitVector mapped(original_nodes_);
  cut.for_each([&](std::size_t i) {
    for (const std::size_t orig : origin_[i]) mapped.set(orig);
  });
  return mapped;
}

void CollapsedBlock::collapse(const BitVector& cut, const std::string& label) {
  CollapseResult collapsed = isex::collapse(current_, cut, label);
  std::vector<std::vector<std::size_t>> origin(collapsed.graph.num_nodes());
  for (std::size_t i = 0; i < origin_.size(); ++i) {
    const NodeId to = collapsed.old_to_new[i];
    ISEX_ASSERT(to.valid(), "collapse dropped a node");
    origin[to.index].insert(origin[to.index].end(), origin_[i].begin(), origin_[i].end());
  }
  current_ = std::move(collapsed.graph);
  origin_ = std::move(origin);
}

}  // namespace isex
