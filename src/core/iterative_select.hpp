// Iterative selection (paper Section 6.3): repeatedly run single-cut
// identification over all blocks, accept the globally best cut, collapse it
// into an opaque super-node of its block's graph, and repeat until Ninstr
// cuts are chosen or no cut improves the application.
#pragma once

#include <span>

#include "core/selection.hpp"
#include "core/single_cut.hpp"

namespace isex {

/// `blocks` are the (finalized) G+ graphs of all basic blocks, frequency
/// weighted. Returned cuts are expressed over each block's original node ids.
///
/// Per-block identification calls within a round are independent; they run
/// on `search.executor` and merge in block order, so the output is
/// identical to the serial run. `search.cache` memoizes the searches (same
/// output, hits skip the search), and `search.split_depth` adds subtree
/// parallelism *within* each identification (also result-identical) — it
/// pays off in the later rounds, where only the one collapsed block
/// re-identifies and block-level parallelism has nothing to do.
SelectionResult select_iterative(std::span<const Dfg> blocks, const LatencyModel& latency,
                                 const Constraints& constraints, int num_instructions,
                                 const CutSearchOptions& search = {});

}  // namespace isex
