#include "schedulable.hpp"

#include <cstdint>
#include <vector>

namespace isex {

bool cuts_jointly_schedulable(const Dfg& g, std::span<const BitVector> cuts) {
  // group[v]: quotient vertex of node v — its own id, or a cut alias.
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> group(n);
  for (std::size_t i = 0; i < n; ++i) group[i] = static_cast<std::uint32_t>(i);
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    std::uint32_t alias = 0xffffffffu;
    cuts[c].for_each([&](std::size_t i) {
      ISEX_CHECK(group[i] == i, "cuts overlap");
      if (alias == 0xffffffffu) alias = static_cast<std::uint32_t>(i);
      group[i] = alias;
    });
  }

  // Kahn over the quotient graph: cyclic iff not all vertices drain.
  std::vector<std::uint32_t> in_deg(n, 0);
  std::vector<std::uint8_t> is_vertex(n, 0);
  for (std::size_t i = 0; i < n; ++i) is_vertex[group[i]] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (NodeId s : g.node(NodeId{i}).succs) {
      if (group[s.index] != group[i]) ++in_deg[group[s.index]];
    }
  }
  std::vector<std::uint32_t> ready;
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_vertex[i]) continue;
    ++total;
    if (in_deg[i] == 0) ready.push_back(static_cast<std::uint32_t>(i));
  }
  std::size_t drained = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++drained;
    for (std::size_t i = 0; i < n; ++i) {
      if (group[i] != v) continue;
      for (NodeId s : g.node(NodeId{i}).succs) {
        if (group[s.index] == v) continue;
        if (--in_deg[group[s.index]] == 0) ready.push_back(group[s.index]);
      }
    }
  }
  return drained == total;
}

}  // namespace isex
