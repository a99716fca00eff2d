// Optimal selection (paper Section 6.2, Fig. 10).
//
// Per block b, let best(b, m) be the summed merit of the best m-cut solution
// found by multiple-cut identification. The paper's scheme starts every
// block at m = 0 and, Ninstr times, grants one more cut to the block whose
// increment best(b, m_b + 1) - best(b, m_b) is largest, lazily invoking the
// identifier — at most Ninstr + Nbb - 1 invocations.
//
// Greedy increments are provably optimal when best(b, ·) is concave in m
// (which diminishing-returns selection makes the paper assume); an exact
// dynamic program over the same best(b, m) tables is provided as a
// cross-check and for the rare non-concave cases.
#pragma once

#include <span>

#include "core/multi_cut.hpp"
#include "core/selection.hpp"

namespace isex {

enum class OptimalMode {
  greedy_increments,  // the paper's algorithm
  exact_dp,           // exhaustive allocation over the best(b, m) tables
};

/// Per-block best(b, m) table extensions within a round are independent;
/// they run on `search.executor`, merged in block order — the output is
/// identical to the serial run. `search.cache` memoizes the multiple-cut
/// searches (same output, hits skip the search), and every search draws on
/// the shared budget gate and polls the cancel token of `search` (the
/// recursive multi-cut engine never subtree-splits); a tripped token yields
/// zero-gain increments, so the greedy loop terminates with the
/// best-so-far partial allocation.
SelectionResult select_optimal(std::span<const Dfg> blocks, const LatencyModel& latency,
                               const Constraints& constraints, int num_instructions,
                               OptimalMode mode = OptimalMode::greedy_increments,
                               const CutSearchOptions& search = {});

}  // namespace isex
