// Collapsing a chosen cut into an opaque super-node — the mechanism behind
// the paper's Iterative selection (Section 6.3): "previously identified cuts
// are merged into single graph nodes, and are excluded from forthcoming
// identification steps".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dfg/dfg.hpp"

namespace isex {

struct CollapseResult {
  Dfg graph;                        // new graph with the cut fused
  std::vector<NodeId> old_to_new;   // old node id -> new node id (members map to `super`)
  NodeId super;                     // the fused node in the new graph
};

/// `members` must be a convex set of candidate nodes of `g`; the result
/// graph replaces them with a single forbidden node that keeps all external
/// edges, so later convexity checks see paths through the fused instruction.
CollapseResult collapse(const Dfg& g, const BitVector& members, const std::string& label);

/// One block under Iterative selection: its graph with the accepted cuts
/// collapsed, and where each original node went. Until the first collapse it
/// reads the original block in place, so `original` must outlive it.
class CollapsedBlock {
 public:
  explicit CollapsedBlock(const Dfg& original) : original_(&original) {}

  /// The block with every accepted cut fused into one forbidden node.
  const Dfg& graph() const { return collapsed_ ? *collapsed_ : *original_; }
  /// `cut` over graph() as a cut over the original block's node ids.
  BitVector to_original(const BitVector& cut) const;
  /// Fuses `cut` (over graph()) into one node named `label`.
  void collapse(const BitVector& cut, const std::string& label);

 private:
  const Dfg* original_;
  std::optional<Dfg> collapsed_;     // empty until the first collapse
  std::vector<NodeId> current_of_;   // original node -> its node in *collapsed_
};

}  // namespace isex
