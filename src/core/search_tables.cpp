#include "core/search_tables.hpp"

#include "dfg/cut.hpp"

namespace isex {

SearchTables SearchTables::build(const Dfg& g, const LatencyModel& latency) {
  ISEX_CHECK(g.finalized(), "SearchTables: graph not finalized");
  SearchTables t;
  const std::size_t n = g.num_nodes();
  t.num_nodes = n;
  t.words = g.row_words();
  t.exec_freq = g.exec_freq();
  if (n != 0) {
    t.desc_rows = g.desc_row(NodeId{0u});
    t.data_succ_rows = g.data_succ_row(NodeId{0u});
  }

  t.sw.assign(n, 0);
  t.hw.assign(n, 0.0);
  t.succ_off.assign(n + 1, 0);
  t.in_off.assign(n + 1, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    const DfgNode& node = g.node(id);
    if (node.kind == NodeKind::op) {
      t.sw[i] = node_sw_cycles(g, id, latency);
      t.hw[i] = node_hw_delay(g, id, latency);
    }
    t.succ_off[i + 1] = t.succ_off[i] + static_cast<std::uint32_t>(node.succs.size());
  }
  t.succ_node.resize(t.succ_off[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t at = t.succ_off[i];
    for (const NodeId s : g.node(NodeId{static_cast<std::uint32_t>(i)}).succs) {
      t.succ_node[at++] = s.index;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const DfgNode& node = g.node(NodeId{static_cast<std::uint32_t>(i)});
    for (std::size_t j = 0; j < node.preds.size(); ++j) {
      const DfgNode& pn = g.node(node.preds[j]);
      // Order-only edges carry no value; constants are hardwired.
      if (!node.pred_is_data[j] || pn.kind == NodeKind::constant) continue;
      t.in_node.push_back(node.preds[j].index);
      t.in_perm.push_back(pn.kind == NodeKind::input || pn.forbidden ? 1 : 0);
    }
    t.in_off[i + 1] = static_cast<std::uint32_t>(t.in_node.size());
  }

  for (const NodeId id : g.search_order()) {
    const DfgNode& node = g.node(id);
    if (node.kind == NodeKind::op && !node.forbidden) t.cand_node.push_back(id.index);
  }
  t.cand_sw_suffix.assign(t.cand_node.size() + 1, 0);
  for (std::size_t c = t.cand_node.size(); c-- > 0;) {
    t.cand_sw_suffix[c] = t.cand_sw_suffix[c + 1] + t.sw[t.cand_node[c]];
  }
  return t;
}

BitVector to_bitvector(std::size_t size, const std::uint64_t* row, std::size_t words) {
  BitVector v(size);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = row[w];
    while (bits != 0) {
      const int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      v.set(w * 64 + static_cast<std::size_t>(b));
    }
  }
  return v;
}

}  // namespace isex
