// Multiple-cut identification (paper Section 6.2, Fig. 9).
//
// The binary search tree becomes (M+1)-ary: at each level a node either
// stays outside or joins one of M cuts. Legality is *quotient-graph
// acyclicity*: collapsing every cut (and keeping plain nodes) must leave a
// DAG — this subsumes per-cut convexity and also rejects mutually dependent
// cut pairs (cut A feeding cut B and vice versa), which individual convexity
// alone would not catch. Cut labels are symmetry-broken (label k can only be
// opened after label k-1), which prunes the M! relabelings.
//
// The engine shares the single-cut engine's word-parallel design (one
// cut-word row per label over SearchTables; see multi_cut.cpp). Results and
// every statistic are byte-identical to the retained reference engine.
#pragma once

#include <vector>

#include "core/constraints.hpp"
#include "core/single_cut.hpp"
#include "dfg/cut.hpp"
#include "dfg/dfg.hpp"
#include "latency/latency_model.hpp"

namespace isex {

struct MultiCutResult {
  std::vector<BitVector> cuts;  // up to M cuts (empty ones trimmed), by merit desc
  double total_merit = 0.0;
  EnumerationStats stats;
};

/// Finds up to `num_cuts` disjoint cuts jointly maximising the summed merit
/// under `constraints` for each cut, honouring the shared budget gate and
/// cancel token of `options` (same override/refusal semantics as the
/// single-cut engine; the token is polled once per search-tree node). The
/// (M+1)-ary walk is recursive and does not subtree-split: executor and
/// split_depth are ignored, and results are independent of both.
MultiCutResult find_best_cuts(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints, int num_cuts,
                              const CutSearchOptions& options = {});

}  // namespace isex
