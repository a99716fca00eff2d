#include "core/baseline_select.hpp"

#include <algorithm>

#include "core/clubbing.hpp"
#include "core/maxmiso.hpp"

namespace isex {

namespace {

/// Nodes reachable from any member of `cut`.
BitVector reach_of(const Dfg& g, const BitVector& cut) {
  BitVector out(g.num_nodes());
  cut.for_each([&](std::size_t v) { out.or_words(g.desc_row(NodeId(v))); });
  return out;
}

/// True when `cut` can issue alongside the cuts already `kept` in its block,
/// i.e. collapsing all of them leaves the block acyclic. Every cut is convex
/// and the kept ones issue together, so a cycle would have to leave `cut`
/// through kept cuts and re-enter it from one of them.
bool issuable_with(const Dfg& g, const BitVector& cut, std::span<const BitVector* const> kept) {
  if (kept.empty()) return true;
  BitVector reached = reach_of(g, cut);
  BitVector from_kept(g.num_nodes());
  std::vector<bool> entered(kept.size(), false);
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (entered[k] || reached.disjoint_with(*kept[k])) continue;
      entered[k] = true;
      from_kept |= reach_of(g, *kept[k]);
      reached |= from_kept;
      grew = true;
    }
  }
  return from_kept.disjoint_with(cut);
}

}  // namespace

SelectionResult select_baseline(std::span<const Dfg> blocks, const LatencyModel& latency,
                                const Constraints& constraints, int num_instructions,
                                BaselineAlgorithm algorithm, Executor* executor) {
  ISEX_CHECK(num_instructions >= 1, "need at least one instruction slot");
  if (executor == nullptr) executor = &serial_executor();
  SelectionResult result;
  std::vector<SelectedCut> candidates;

  // Per-block identification is independent; filtering and ranking below
  // consume the results in block order, so the selection is deterministic.
  std::vector<std::vector<BitVector>> per_block(blocks.size());
  executor->parallel_for(blocks.size(), [&](std::size_t b) {
    per_block[b] = algorithm == BaselineAlgorithm::clubbing
                       ? find_clubs(blocks[b], latency, constraints)
                       : find_max_misos(blocks[b]);
  });

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Dfg& g = blocks[b];
    const std::vector<BitVector>& found = per_block[b];
    ++result.identification_calls;
    for (const BitVector& cut : found) {
      SelectedCut sc;
      sc.block_index = static_cast<int>(b);
      sc.metrics = compute_metrics(g, cut, latency);
      // MaxMISO identification ignores the port constraints; infeasible
      // subgraphs are discarded here (they cannot be shrunk — paper Sec. 8).
      if (sc.metrics.inputs > constraints.max_inputs ||
          sc.metrics.outputs > constraints.max_outputs || !sc.metrics.convex) {
        continue;
      }
      sc.merit = merit_of(sc.metrics, g.exec_freq());
      if (sc.merit <= 0) continue;
      sc.cut = cut;
      candidates.push_back(std::move(sc));
    }
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SelectedCut& a, const SelectedCut& b) { return a.merit > b.merit; });
  // Candidates of one block are disjoint and each convex, but two
  // multi-output clubs can still depend on each other; collapsing both would
  // leave a cycle. Keep the best candidates that stay issuable together with
  // those already kept in their block.
  std::vector<std::vector<const BitVector*>> kept(blocks.size());
  for (const SelectedCut& sc : candidates) {
    if (static_cast<int>(result.cuts.size()) == num_instructions) break;
    const auto b = static_cast<std::size_t>(sc.block_index);
    if (!issuable_with(blocks[b], sc.cut, kept[b])) continue;
    kept[b].push_back(&sc.cut);
    result.total_merit += sc.merit;
    result.cuts.push_back(sc);
  }
  return result;
}

}  // namespace isex
