#include "core/area_select.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/iterative_select.hpp"

namespace isex {

int candidate_pool_slots(int num_instructions) {
  constexpr int kMax = std::numeric_limits<int>::max();
  return num_instructions > kMax / 2 ? kMax : num_instructions * 2;
}

std::vector<std::size_t> knapsack_select_indices(std::span<const double> values,
                                                 std::span<const double> areas,
                                                 double max_area_macs,
                                                 double area_grid_macs, int max_count) {
  ISEX_CHECK(values.size() == areas.size(), "one area per value required");
  ISEX_CHECK(max_area_macs >= 0, "negative area budget");
  ISEX_CHECK(max_count >= 1, "need at least one instruction slot");
  ISEX_CHECK(area_grid_macs > 0, "area grid must be positive");

  // Grid cells count in 64 bits and saturate, so no budget wraps.
  constexpr auto kMaxCells = std::numeric_limits<std::int64_t>::max();
  const auto grid = [&](double area) -> std::int64_t {
    const double cells = std::ceil(area / area_grid_macs - 1e-12);
    if (cells >= static_cast<double>(kMaxCells)) return kMaxCells;
    return std::max<std::int64_t>(0, static_cast<std::int64_t>(cells));
  };
  const std::size_t n = values.size();
  // Every subset fits in the items' summed area, so a larger budget selects
  // the same, and past n items every dp row is saturated: both caps keep
  // the selection and size the table by the items, not by the budget or
  // Ninstr.
  std::int64_t total_cells = 0;
  for (const double area : areas) {
    const std::int64_t cells = grid(area);
    total_cells = cells > kMaxCells - total_cells ? kMaxCells : total_cells + cells;
  }
  const std::int64_t capacity = std::min(grid(max_area_macs), total_cells);
  max_count = static_cast<int>(std::min<std::size_t>(max_count, n));

  // dp[i][w][k] = best value from the first i items with area weight <= w
  // and <= k instructions. Full staged table for exact reconstruction.
  const std::size_t ws = static_cast<std::size_t>(capacity) + 1;
  const std::size_t ks = static_cast<std::size_t>(max_count) + 1;
  std::vector<double> dp;
  ISEX_CHECK(ws <= dp.max_size() / ((n + 1) * ks),
             "area_grid_macs is too fine for the candidates' areas");
  dp.assign((n + 1) * ws * ks, 0.0);
  const auto at = [&](std::size_t i, std::int64_t w, int k) -> double& {
    return dp[(i * ws + static_cast<std::size_t>(w)) * ks + static_cast<std::size_t>(k)];
  };

  for (std::size_t i = 1; i <= n; ++i) {
    const std::int64_t w_i = grid(areas[i - 1]);
    const double v_i = values[i - 1];
    for (std::int64_t w = 0; w <= capacity; ++w) {
      for (int k = 0; k <= max_count; ++k) {
        double best = at(i - 1, w, k);
        if (w >= w_i && k >= 1) {
          best = std::max(best, at(i - 1, w - w_i, k - 1) + v_i);
        }
        at(i, w, k) = best;
      }
    }
  }

  std::int64_t w = capacity;
  int k = max_count;
  std::vector<bool> selected(n, false);
  for (std::size_t i = n; i >= 1; --i) {
    if (at(i, w, k) > at(i - 1, w, k) + 1e-12) {
      selected[i - 1] = true;
      w -= grid(areas[i - 1]);
      k -= 1;
    }
  }
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < n; ++i) {
    if (selected[i]) chosen.push_back(i);
  }
  return chosen;
}

SelectionResult select_area_constrained(std::span<const Dfg> blocks,
                                        const LatencyModel& latency,
                                        const Constraints& constraints,
                                        const AreaSelectOptions& options,
                                        const CutSearchOptions& search) {
  // Fail fast on malformed options (knapsack_select_indices re-checks, but
  // only after the expensive candidate generation below).
  ISEX_CHECK(options.max_area_macs >= 0, "negative area budget");
  ISEX_CHECK(options.num_instructions >= 1, "need at least one instruction slot");
  ISEX_CHECK(options.area_grid_macs > 0, "area grid must be positive");

  SelectionResult pool = select_iterative(blocks, latency, constraints,
                                          candidate_pool_slots(options.num_instructions), search);

  std::vector<double> values;
  std::vector<double> areas;
  for (const SelectedCut& sc : pool.cuts) {
    values.push_back(sc.merit);
    areas.push_back(sc.metrics.area_macs);
  }
  const std::vector<std::size_t> chosen =
      knapsack_select_indices(values, areas, options.max_area_macs,
                              options.area_grid_macs, options.num_instructions);

  SelectionResult result;
  result.identification_calls = pool.identification_calls;
  result.stats = pool.stats;
  for (const std::size_t i : chosen) {
    result.total_merit += pool.cuts[i].merit;
    result.cuts.push_back(std::move(pool.cuts[i]));
  }
  return result;
}

}  // namespace isex
