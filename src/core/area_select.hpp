// Instruction selection under an area constraint — the paper's Section 9
// future-work item ("Future work will also address directly the problem of
// instruction selection under area constraint").
//
// The candidate pool is produced by the Iterative scheme (Section 6.3) with
// a generous instruction count; a 0/1 knapsack over (merit, AFU area) then
// picks the subset that maximises total merit within the silicon budget and
// the instruction-count cap. Candidates from the Iterative scheme are
// pairwise disjoint and jointly schedulable, so any subset is a valid
// selection.
#pragma once

#include <span>

#include "core/selection.hpp"
#include "core/single_cut.hpp"
#include "latency/latency_model.hpp"

namespace isex {

struct AreaSelectOptions {
  double max_area_macs = 1.0;  // silicon budget in 32-bit MAC equivalents
  int num_instructions = 16;   // opcode-space cap
  /// Knapsack area resolution; smaller = finer DP grid.
  double area_grid_macs = 0.002;
};

/// Generates the candidate pool with select_iterative under `search`, then
/// runs the knapsack below.
SelectionResult select_area_constrained(std::span<const Dfg> blocks,
                                        const LatencyModel& latency,
                                        const Constraints& constraints,
                                        const AreaSelectOptions& options,
                                        const CutSearchOptions& search = {});

/// Slots of an area-budgeted scheme's Iterative candidate pool: twice the
/// instruction cap, so the knapsack can trade one large candidate for
/// several small ones. Saturates at INT_MAX instead of wrapping.
int candidate_pool_slots(int num_instructions);

/// The Section 9 selection core, exposed for every area-budgeted scheme
/// (single-application "area", portfolio merge-then-select): 0/1 knapsack
/// over parallel (value, area) items with an instruction-count cap.
/// Returns the indices (ascending) of the subset maximizing total value
/// with gridded total area within `max_area_macs` and at most `max_count`
/// items.
std::vector<std::size_t> knapsack_select_indices(std::span<const double> values,
                                                 std::span<const double> areas,
                                                 double max_area_macs,
                                                 double area_grid_macs, int max_count);

}  // namespace isex
