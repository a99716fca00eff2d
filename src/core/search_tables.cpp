#include "core/search_tables.hpp"

#include <cstring>

#include "dfg/cut.hpp"

namespace isex {

SearchTables SearchTables::build(const Dfg& g, const LatencyModel& latency) {
  ISEX_CHECK(g.finalized(), "SearchTables: graph not finalized");
  SearchTables t;
  const std::size_t n = g.num_nodes();
  t.num_nodes = n;
  t.words = (n + 63) / 64;
  t.exec_freq = g.exec_freq();

  t.desc_rows.assign(n * t.words, 0);
  t.data_succ_rows.assign(n * t.words, 0);
  t.sw.assign(n, 0);
  t.hw.assign(n, 0.0);
  t.succ_off.assign(n + 1, 0);
  t.in_off.assign(n + 1, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    const DfgNode& node = g.node(id);
    std::memcpy(t.desc_rows.data() + i * t.words, g.descendants(id).words(),
                t.words * sizeof(std::uint64_t));
    std::memcpy(t.data_succ_rows.data() + i * t.words, g.data_succ_mask(id).words(),
                t.words * sizeof(std::uint64_t));
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
    const NodeId id{static_cast<std::uint32_t>(i)};
    t.in_off[i + 1] = t.in_off[i];
    g.data_pred_mask(id).for_each([&](std::size_t p) {
      const DfgNode& pn = g.node(NodeId{static_cast<std::uint32_t>(p)});
      if (pn.kind == NodeKind::constant) return;  // hardwired, never an input
      t.in_node.push_back(static_cast<std::uint32_t>(p));
      t.in_perm.push_back(pn.kind == NodeKind::input || pn.forbidden ? 1 : 0);
      ++t.in_off[i + 1];
    });
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
