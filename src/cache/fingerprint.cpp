#include "cache/fingerprint.hpp"

#include "support/hash.hpp"

namespace isex {

namespace {

/// Everything node-local that influences identification: kind, the opcode
/// (op nodes), the literal (constants), and the candidate/ROM flags.
std::uint64_t node_content_hash(const DfgNode& n) {
  std::uint64_t h = hash_combine(kHashSeed, static_cast<std::uint64_t>(n.kind));
  if (n.kind == NodeKind::op) h = hash_combine(h, static_cast<std::uint64_t>(n.op));
  if (n.kind == NodeKind::constant) {
    h = hash_combine(h, static_cast<std::uint64_t>(n.imm));
  }
  h = hash_combine(h, n.forbidden ? 1u : 0u);
  h = hash_combine(h, n.rom_load ? 1u : 0u);
  h = hash_combine(h, n.rom_words);
  return h;
}

}  // namespace

DfgFingerprint dfg_fingerprint(const Dfg& g) {
  std::uint64_t h = hash_combine(kHashSeed ^ 0xE8AC7ull, g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    const DfgNode& node = g.node(NodeId(i));
    h = hash_combine(h, node_content_hash(node));
    h = hash_combine(h, node.preds.size());
    for (std::size_t k = 0; k < node.preds.size(); ++k) {
      h = hash_combine(h, hash_combine(node.preds[k].index, node.pred_is_data[k]));
    }
  }
  return {hash_combine(h, hash_double(g.exec_freq()))};
}

std::uint64_t constraints_signature(const Constraints& c) {
  std::uint64_t h = hash_combine(kHashSeed, static_cast<std::uint64_t>(c.max_inputs));
  h = hash_combine(h, static_cast<std::uint64_t>(c.max_outputs));
  h = hash_combine(h, c.enable_pruning ? 1u : 0u);
  h = hash_combine(h, c.prune_permanent_inputs ? 1u : 0u);
  h = hash_combine(h, c.branch_and_bound ? 1u : 0u);
  h = hash_combine(h, c.search_budget);
  return h;
}

std::uint64_t latency_signature(const LatencyModel& m) {
  std::uint64_t h = kHashSeed ^ 0x1A7ull;
  for (std::size_t i = 0; i < opcode_count; ++i) {
    const OpCost& cost = m.cost(static_cast<Opcode>(i));
    h = hash_combine(h, static_cast<std::uint64_t>(cost.sw_cycles));
    h = hash_combine(h, hash_double(cost.hw_delay));
    h = hash_combine(h, hash_double(cost.area_macs));
  }
  h = hash_combine(h, hash_double(m.rom_hw_delay()));
  h = hash_combine(h, hash_double(m.rom_area_per_word()));
  return h;
}

std::uint64_t dfg_options_signature(const DfgOptions& o) {
  return hash_combine(kHashSeed ^ 0xD46ull, o.allow_rom_loads ? 1u : 0u);
}

}  // namespace isex
