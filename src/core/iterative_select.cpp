#include "core/iterative_select.hpp"

#include <optional>

#include "cache/result_cache.hpp"
#include "dfg/collapse.hpp"
#include "support/parallel.hpp"

namespace isex {

namespace {

struct BlockState {
  CollapsedBlock current;
  std::optional<SingleCutResult> cached;  // best cut on current.graph()
};

}  // namespace

SelectionResult select_iterative(std::span<const Dfg> blocks, const LatencyModel& latency,
                                 const Constraints& constraints, int num_instructions,
                                 const CutSearchOptions& search) {
  ISEX_CHECK(num_instructions >= 1, "need at least one instruction slot");
  Executor& executor = search.executor != nullptr ? *search.executor : serial_executor();
  SelectionResult result;

  std::vector<BlockState> state;
  state.reserve(blocks.size());
  for (const Dfg& g : blocks) state.push_back({CollapsedBlock(g), std::nullopt});

  for (int round = 0; round < num_instructions; ++round) {
    // Identify on every block whose cache was invalidated (all blocks in
    // round 0, just the collapsed one afterwards). The searches are
    // independent; stats merge in block order, keeping the result identical
    // to a serial run.
    std::vector<std::size_t> pending;
    for (std::size_t b = 0; b < state.size(); ++b) {
      if (!state[b].cached) pending.push_back(b);
    }
    executor.parallel_for(pending.size(), [&](std::size_t i) {
      BlockState& s = state[pending[i]];
      s.cached = cached_single_cut(s.current.graph(), latency, constraints, search);
    });
    for (const std::size_t b : pending) {
      ++result.identification_calls;
      result.stats += state[b].cached->stats;
    }

    int best_block = -1;
    double best_merit = 0.0;
    for (std::size_t b = 0; b < state.size(); ++b) {
      if (state[b].cached->merit > best_merit) {
        best_merit = state[b].cached->merit;
        best_block = static_cast<int>(b);
      }
    }
    if (best_block < 0) break;  // no remaining cut has positive merit

    BlockState& s = state[static_cast<std::size_t>(best_block)];
    const SingleCutResult& found = *s.cached;
    SelectedCut chosen;
    chosen.block_index = best_block;
    chosen.cut = s.current.to_original(found.cut);
    chosen.merit = found.merit;
    chosen.metrics = found.metrics;
    result.total_merit += found.merit;
    result.cuts.push_back(std::move(chosen));

    // Collapse the accepted cut; later identification sees it as opaque.
    s.current.collapse(found.cut, "isex" + std::to_string(round));
    s.cached.reset();
  }
  return result;
}

}  // namespace isex
