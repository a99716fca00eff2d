// The pre-word-parallel enumeration engines, retained verbatim as the
// reference implementation of the identification searches.
//
// These are the recursive, adjacency-list-scanning walkers the reproduction
// shipped before the engine rebuild: per-edge successor scans for the
// reach/output/convexity checks, LatencyModel lookups per visit, and plain
// recursion. They are kept — not as a fallback, but as the executable
// specification the fast engines are pinned against: property tests assert
// that find_best_cut / find_best_cuts return byte-identical results
// (cut bits, bitwise-equal merits, every statistics counter) to these
// functions on random DAGs under random constraints, across subtree-split
// thread counts, and the identification_scaling bench measures the fast
// engines' speedup over them. They build into the isex_reference support
// library that those two link, never into libisex.
#pragma once

#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"

namespace isex {

/// Reference single-cut identification (paper Problem 1), byte-identical to
/// find_best_cut by construction of the latter.
SingleCutResult find_best_cut_reference(const Dfg& g, const LatencyModel& latency,
                                        const Constraints& constraints);

/// Reference multiple-cut identification, byte-identical to find_best_cuts.
MultiCutResult find_best_cuts_reference(const Dfg& g, const LatencyModel& latency,
                                        const Constraints& constraints, int num_cuts);

}  // namespace isex
