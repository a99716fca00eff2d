#include "dfg/dfg.hpp"

#include <functional>
#include <queue>
#include <unordered_map>

#include "ir/printer.hpp"

namespace isex {

const DfgNode& Dfg::node(NodeId n) const {
  ISEX_ASSERT(n.valid() && n.index < nodes_.size(), "invalid DFG node id");
  return nodes_[n.index];
}

DfgNode& Dfg::node_mutable(NodeId n) {
  ISEX_ASSERT(n.valid() && n.index < nodes_.size(), "invalid DFG node id");
  finalized_ = false;
  return nodes_[n.index];
}

NodeId Dfg::add_node(DfgNode node) {
  finalized_ = false;
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(std::move(node));
  return id;
}

NodeId Dfg::add_op(Opcode op, std::string label) {
  DfgNode n;
  n.kind = NodeKind::op;
  n.op = op;
  n.label = label.empty() ? name_of(op) : std::move(label);
  return add_node(std::move(n));
}

NodeId Dfg::add_forbidden_op(Opcode op, std::string label) {
  const NodeId id = add_op(op, std::move(label));
  nodes_[id.index].forbidden = true;
  return id;
}

NodeId Dfg::add_constant(std::int64_t literal) {
  DfgNode n;
  n.kind = NodeKind::constant;
  n.imm = literal;
  n.forbidden = true;  // constants are absorbed, never enumerated
  n.label = std::to_string(literal);
  return add_node(std::move(n));
}

NodeId Dfg::add_input(std::string label) {
  DfgNode n;
  n.kind = NodeKind::input;
  n.forbidden = true;
  n.label = label.empty() ? "in" : std::move(label);
  return add_node(std::move(n));
}

NodeId Dfg::add_output(NodeId producer, std::string label) {
  DfgNode n;
  n.kind = NodeKind::output;
  n.forbidden = true;
  n.label = label.empty() ? "out" : std::move(label);
  const NodeId id = add_node(std::move(n));
  add_edge(producer, id);
  return id;
}

NodeId Dfg::copy_node(const DfgNode& source) {
  DfgNode n;
  static_cast<DfgNodeFields&>(n) = source;
  return add_node(std::move(n));
}

void Dfg::add_edge(NodeId from, NodeId to, bool order_only) {
  ISEX_CHECK(from.valid() && to.valid() && from.index < nodes_.size() && to.index < nodes_.size(),
             "add_edge: invalid node");
  ISEX_CHECK(from != to, "add_edge: self edge");
  finalized_ = false;
  DfgNode& f = nodes_[from.index];
  DfgNode& t = nodes_[to.index];
  // Deduplicate; an order-only edge is absorbed by an existing data edge.
  for (std::size_t k = 0; k < f.succs.size(); ++k) {
    if (f.succs[k] == to) {
      if (!order_only) {
        f.succ_is_data[k] = 1;
        for (std::size_t j = 0; j < t.preds.size(); ++j) {
          if (t.preds[j] == from) t.pred_is_data[j] = 1;
        }
      }
      return;
    }
  }
  f.succs.push_back(to);
  f.succ_is_data.push_back(order_only ? 0 : 1);
  t.preds.push_back(from);
  t.pred_is_data.push_back(order_only ? 0 : 1);
}

void Dfg::finalize() {
  candidates_.clear();
  op_nodes_.clear();
  search_order_.clear();

  // Kahn forward topological order over all nodes.
  std::vector<std::uint32_t> in_deg(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    in_deg[i] = static_cast<std::uint32_t>(nodes_[i].preds.size());
  }
  std::vector<NodeId> forward;
  forward.reserve(nodes_.size());
  // Deterministic order: smallest ready id first, from a min-heap.
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_deg[i] == 0) ready.push(static_cast<std::uint32_t>(i));
  }
  while (!ready.empty()) {
    const NodeId n{ready.top()};
    ready.pop();
    forward.push_back(n);
    for (NodeId s : nodes_[n.index].succs) {
      if (--in_deg[s.index] == 0) ready.push(s.index);
    }
  }
  ISEX_CHECK(forward.size() == nodes_.size(), "DFG contains a cycle");

  // Descendant closure, processed from sinks backwards, and the immediate
  // data successors (order-only edges stay in the CSR lists the engines
  // flatten per search — no engine consumes them as a row). A node can
  // reach the current cut iff its descendant row intersects the cut bits,
  // so the rows are computed here once per graph and shared through the
  // extraction cache.
  row_words_ = (nodes_.size() + 63) / 64;
  desc_rows_.assign(nodes_.size() * row_words_, 0);
  data_succ_rows_.assign(nodes_.size() * row_words_, 0);
  for (std::size_t k = forward.size(); k-- > 0;) {
    const std::size_t n = forward[k].index;
    const DfgNode& node = nodes_[n];
    std::uint64_t* d = desc_rows_.data() + n * row_words_;
    std::uint64_t* data_succ = data_succ_rows_.data() + n * row_words_;
    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      const std::uint32_t s = node.succs[j].index;
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      d[s >> 6] |= bit;
      if (node.succ_is_data[j]) data_succ[s >> 6] |= bit;
      const std::uint64_t* ds = desc_rows_.data() + s * row_words_;
      for (std::size_t w = 0; w < row_words_; ++w) d[w] |= ds[w];
    }
  }

  // Search order: op and output nodes, reverse forward order (consumers
  // before producers — the paper's "u appears after v for every edge (u,v)").
  for (std::size_t k = forward.size(); k-- > 0;) {
    const NodeId n = forward[k];
    const NodeKind kind = nodes_[n.index].kind;
    if (kind == NodeKind::op || kind == NodeKind::output) search_order_.push_back(n);
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId n{static_cast<std::uint32_t>(i)};
    if (nodes_[i].kind != NodeKind::op) continue;
    op_nodes_.push_back(n);
    if (!nodes_[i].forbidden) candidates_.push_back(n);
  }
  finalized_ = true;
}

bool Dfg::reaches(NodeId a, NodeId b) const {
  ISEX_ASSERT(b.valid() && b.index < nodes_.size(), "invalid node");
  return desc_row(a)[b.index >> 6] >> (b.index & 63) & 1;
}

const std::uint64_t* Dfg::desc_row(NodeId n) const {
  check_finalized();
  ISEX_ASSERT(n.valid() && n.index < nodes_.size(), "invalid node");
  return desc_rows_.data() + n.index * row_words_;
}

const std::uint64_t* Dfg::data_succ_row(NodeId n) const {
  check_finalized();
  ISEX_ASSERT(n.valid() && n.index < nodes_.size(), "invalid node");
  return data_succ_rows_.data() + n.index * row_words_;
}

Dfg Dfg::from_block(const Module& module, const Function& fn, BlockId block, double exec_freq,
                    const DfgOptions& options) {
  Dfg g;
  g.name_ = fn.name() + ":" + fn.block(block).name;
  g.exec_freq_ = exec_freq;
  g.source_block_ = block;

  std::unordered_map<std::uint32_t, NodeId> value_node;   // producer value -> node
  std::unordered_map<std::int64_t, NodeId> const_node;    // literal -> node
  std::unordered_map<std::uint32_t, NodeId> input_node;   // external value -> node

  const BasicBlock& bb = fn.block(block);
  const ValueNames names(fn);

  // Which values are defined by non-phi instructions of this block?
  for (InstrId id : bb.instrs) {
    const Instruction& ins = fn.instr(id);
    if (ins.op == Opcode::phi || info(ins.op).is_terminator) continue;
    if (!ins.result.valid()) continue;
    value_node[ins.result.index] = NodeId{};  // reserved; filled below
  }

  auto node_for_operand = [&](ValueId v) -> NodeId {
    const ValueDef& def = fn.value(v);
    if (def.kind == ValueKind::konst) {
      auto [it, inserted] = const_node.try_emplace(def.imm, NodeId{});
      if (inserted) it->second = g.add_constant(def.imm);
      return it->second;
    }
    const auto local = value_node.find(v.index);
    if (local != value_node.end() && local->second.valid()) return local->second;
    ISEX_CHECK(local == value_node.end(),
               "operand defined later in block (IR not in dataflow order)");
    auto [it, inserted] = input_node.try_emplace(v.index, NodeId{});
    if (inserted) {
      it->second = g.add_input(names.name(v));
      g.node_mutable(it->second).value = v;  // AFU builders need the IR value
    }
    return it->second;
  };

  // Create op nodes in program order, wiring data edges.
  NodeId last_store{};
  std::vector<NodeId> loads_since_store;
  for (InstrId id : bb.instrs) {
    const Instruction& ins = fn.instr(id);
    if (ins.op == Opcode::phi || info(ins.op).is_terminator) continue;

    DfgNode n;
    n.kind = NodeKind::op;
    n.op = ins.op;
    n.instr = id;
    n.value = ins.result;
    n.label = name_of(ins.op);
    if (info(ins.op).is_memory) {
      n.forbidden = true;
      if (ins.op == Opcode::load && ins.imm > 0) {
        // ROM hint: imm = 1 + read-only segment index (set by the frontend).
        const auto seg_index = static_cast<std::size_t>(ins.imm - 1);
        ISEX_CHECK(seg_index < module.segments().size(), "bad ROM hint on load");
        ISEX_CHECK(module.segments()[seg_index].read_only,
                   "ROM hint references writable segment");
        n.imm = ins.imm;
        n.rom_load = true;
        n.rom_words = module.segments()[seg_index].size_words;
        if (options.allow_rom_loads) n.forbidden = false;
        n.label = "rom_" + module.segments()[seg_index].name;
      }
    }
    if (ins.op == Opcode::custom || ins.op == Opcode::extract) {
      n.forbidden = true;  // already-selected extensions are opaque
    }
    const NodeId nid = g.add_node(std::move(n));
    if (ins.result.valid()) value_node[ins.result.index] = nid;

    for (ValueId v : ins.operands) g.add_edge(node_for_operand(v), nid);

    // Conservative memory ordering chain.
    if (ins.op == Opcode::load) {
      if (last_store.valid()) g.add_edge(last_store, nid, /*order_only=*/true);
      loads_since_store.push_back(nid);
    } else if (ins.op == Opcode::store) {
      if (last_store.valid()) g.add_edge(last_store, nid, /*order_only=*/true);
      for (NodeId l : loads_since_store) g.add_edge(l, nid, /*order_only=*/true);
      loads_since_store.clear();
      last_store = nid;
    }
  }

  // Live-out analysis: a block value is live out if used by another block,
  // by a phi edge, or by this block's terminator.
  const Instruction& term = fn.instr(fn.terminator(block));
  std::vector<std::uint8_t> live_out(fn.num_values(), 0);
  for (ValueId v : term.operands) {
    if (v.index < live_out.size()) live_out[v.index] = 1;
  }
  for (std::size_t i = 0; i < fn.num_instrs(); ++i) {
    const Instruction& other = fn.instr(InstrId{static_cast<std::uint32_t>(i)});
    if (other.dead) continue;
    if (other.parent == block && other.op != Opcode::phi) continue;
    // Phis in this block consume values along incoming edges — from the
    // block's own perspective those uses happen elsewhere.
    for (ValueId v : other.operands) live_out[v.index] = 1;
  }
  // Output nodes are created in program order of their producing
  // instructions — a deterministic order that depends only on the block's
  // structure, never on raw value-arena indices, so a module reconstructed
  // from its textual dump fingerprints identically to the built original.
  for (InstrId id : bb.instrs) {
    const Instruction& ins = fn.instr(id);
    if (ins.op == Opcode::phi || info(ins.op).is_terminator) continue;
    if (!ins.result.valid()) continue;
    const auto it = value_node.find(ins.result.index);
    if (it == value_node.end() || !it->second.valid()) continue;
    if (live_out[ins.result.index]) {
      g.add_output(it->second, "out:" + names.name(ins.result));
    }
  }

  g.finalize();
  return g;
}

}  // namespace isex
