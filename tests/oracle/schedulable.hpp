// Multiple-cut legality oracle: the quotient-graph acyclicity check the
// multi-cut engine and the selection schemes are tested against. Nothing in
// the library calls it (the engines keep the property incrementally), so it
// builds into the isex_reference support library, never into libisex.
#pragma once

#include <span>

#include "dfg/dfg.hpp"

namespace isex {

/// Collapsing every cut into one vertex (keeping plain nodes) must leave
/// the quotient graph acyclic. Cuts must be pairwise disjoint.
bool cuts_jointly_schedulable(const Dfg& g, std::span<const BitVector> cuts);

}  // namespace isex
