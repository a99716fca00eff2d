#include "afu/rewrite.hpp"

#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "afu/afu_builder.hpp"
#include "ir/verifier.hpp"

namespace isex {

namespace {

/// Rewrites one cut (given as a set of instruction ids) inside `block`.
void rewrite_one(Module& module, Function& fn, BlockId block,
                 const std::unordered_set<std::uint32_t>& member_instrs,
                 const LatencyModel& latency, const std::string& name, RewriteReport& report) {
  DfgOptions opts;
  opts.allow_rom_loads = true;  // membership is decided; mapping must see ROMs
  const Dfg g = Dfg::from_block(module, fn, block, 1.0, opts);

  BitVector cut(g.num_nodes());
  std::size_t found = 0;
  for (const NodeId n : g.op_nodes()) {
    const InstrId id = g.node(n).instr;
    if (id.valid() && member_instrs.contains(id.index)) {
      cut.set(n.index);
      ++found;
    }
  }
  ISEX_CHECK(found == member_instrs.size(), "cut instructions not found in block");

  const AfuSpec spec = build_afu(module, fn, g, cut, latency, name);
  const int op_index = module.add_custom_op(spec.op);
  report.custom_op_indices.push_back(op_index);
  report.total_area_macs += spec.op.area_macs;
  ++report.instructions_added;

  // Quotient topological order over the block's op nodes with the cut fused.
  const std::size_t n_nodes = g.num_nodes();
  constexpr std::uint32_t kSuper = 0xfffffffeu;
  std::vector<std::uint32_t> group(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    group[i] = cut.test(i) ? kSuper : static_cast<std::uint32_t>(i);
  }

  // Kahn over quotient vertices (all node kinds participate as order
  // carriers; only op vertices emit instructions).
  std::unordered_map<std::uint32_t, std::uint32_t> in_deg;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> succs;
  const auto vertex_ids = [&]() {
    std::vector<std::uint32_t> vs;
    std::unordered_set<std::uint32_t> seen;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      if (seen.insert(group[i]).second) vs.push_back(group[i]);
    }
    return vs;
  }();
  for (const std::uint32_t v : vertex_ids) in_deg[v] = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    for (const NodeId s : g.node(NodeId{i}).succs) {
      if (group[s.index] == group[i]) continue;
      succs[group[i]].push_back(group[s.index]);
      ++in_deg[group[s.index]];
    }
  }
  // Deterministic Kahn: smallest ready vertex id first, from a min-heap
  // (kSuper comes last, which is fine — it only needs a valid topological
  // slot).
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (const std::uint32_t v : vertex_ids) {
    if (in_deg[v] == 0) ready.push(v);
  }
  std::vector<std::uint32_t> quotient_order;
  while (!ready.empty()) {
    const std::uint32_t v = ready.top();
    ready.pop();
    quotient_order.push_back(v);
    for (const std::uint32_t s : succs[v]) {
      if (--in_deg[s] == 0) ready.push(s);
    }
  }
  ISEX_CHECK(quotient_order.size() == vertex_ids.size(),
             "quotient graph is cyclic — cut was not convex");

  // Create the custom instruction and its extracts (appended at the end of
  // the block for now; the final order is installed below). The terminator
  // id must be captured before appending displaces it from the tail.
  const InstrId terminator_id = fn.terminator(block);
  const InstrId custom_id = fn.append_instr(block, Opcode::custom, spec.input_values, {},
                                            op_index);
  const ValueId bundle = fn.instr(custom_id).result;
  std::vector<InstrId> extract_ids;
  std::vector<ValueId> old_outputs = spec.output_values;
  for (std::size_t k = 0; k < old_outputs.size(); ++k) {
    extract_ids.push_back(fn.append_instr(block, Opcode::extract, {bundle}, {},
                                          static_cast<std::int64_t>(k)));
  }

  // Install the new instruction list: phis, quotient order, terminator.
  BasicBlock& bb = fn.block(block);
  std::vector<InstrId> new_list;
  for (const InstrId id : bb.instrs) {
    if (fn.instr(id).op == Opcode::phi) new_list.push_back(id);
  }
  for (const std::uint32_t v : quotient_order) {
    if (v == kSuper) {
      new_list.push_back(custom_id);
      new_list.insert(new_list.end(), extract_ids.begin(), extract_ids.end());
      continue;
    }
    const DfgNode& node = g.node(NodeId{v});
    if (node.kind != NodeKind::op) continue;
    new_list.push_back(node.instr);
  }
  new_list.push_back(terminator_id);
  bb.instrs = std::move(new_list);

  // Retire the members and reroute their consumers to the extracts.
  for (const std::uint32_t idx : member_instrs) {
    fn.instr(InstrId{idx}).dead = true;
  }
  for (std::size_t k = 0; k < old_outputs.size(); ++k) {
    fn.replace_all_uses(old_outputs[k], fn.instr(extract_ids[k]).result);
  }
}

}  // namespace

RewriteReport rewrite_selection(Module& module, Function& fn, std::span<const Dfg> blocks,
                                const SelectionResult& selection, const LatencyModel& latency,
                                const std::string& name_prefix,
                                std::span<const std::string> cut_names) {
  ISEX_CHECK(cut_names.empty() || cut_names.size() == selection.cuts.size(),
             "rewrite_selection: cut_names must name every cut (or none)");
  RewriteReport report;

  // Resolve cuts to stable instruction-id sets up front: node ids shift as
  // blocks are rewritten, instruction ids do not.
  struct PendingCut {
    BlockId block;
    std::unordered_set<std::uint32_t> instrs;
  };
  std::vector<PendingCut> pending;
  for (const SelectedCut& sc : selection.cuts) {
    const Dfg& g = blocks[static_cast<std::size_t>(sc.block_index)];
    ISEX_CHECK(g.source_block().valid(), "selection references a synthetic graph");
    PendingCut pc;
    pc.block = g.source_block();
    sc.cut.for_each([&](std::size_t i) {
      const InstrId id = g.node(NodeId{i}).instr;
      ISEX_CHECK(id.valid(), "cut member has no instruction");
      pc.instrs.insert(id.index);
    });
    pending.push_back(std::move(pc));
  }

  int counter = 0;
  for (const PendingCut& pc : pending) {
    const std::string name = cut_names.empty()
                                 ? name_prefix + std::to_string(counter)
                                 : cut_names[static_cast<std::size_t>(counter)];
    rewrite_one(module, fn, pc.block, pc.instrs, latency, name, report);
    ++counter;
  }
  verify_function(module, fn);
  return report;
}

}  // namespace isex
