#include "core/optimal_select.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "cache/result_cache.hpp"
#include "support/parallel.hpp"

namespace isex {

namespace {

struct BlockTable {
  // best[m] = best total merit using exactly <= m cuts (best[0] = 0).
  std::vector<double> best{0.0};
  std::vector<MultiCutResult> solutions{MultiCutResult{}};
  int exhausted_at = -1;  // m where no further gain appeared (-1: unknown)
};

/// True if best(b, m) still needs an identification call.
bool needs_fill(const BlockTable& table, int m) {
  if (static_cast<int>(table.best.size()) > m) return false;
  return table.exhausted_at < 0 || m <= table.exhausted_at;
}

/// Applies a computed m-cut solution to the table (the sequential part of the
/// old `ensure`); returns false if the table saturated at m - 1.
bool apply(BlockTable& table, MultiCutResult r, int m, SelectionResult& accounting) {
  ISEX_ASSERT(static_cast<int>(table.best.size()) == m, "table filled out of order");
  ++accounting.identification_calls;
  accounting.stats += r.stats;
  if (r.total_merit <= table.best.back() + 1e-12 ||
      static_cast<int>(r.cuts.size()) < m) {
    table.exhausted_at = m - 1;
    return false;
  }
  table.best.push_back(r.total_merit);
  table.solutions.push_back(std::move(r));
  return true;
}

SelectionResult assemble(std::span<const Dfg> blocks, const std::vector<BlockTable>& tables,
                         const std::vector<int>& m_of_block, const LatencyModel& latency,
                         SelectionResult accounting) {
  SelectionResult result = std::move(accounting);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const int m = m_of_block[b];
    if (m == 0) continue;
    const MultiCutResult& sol = tables[b].solutions[static_cast<std::size_t>(m)];
    double assigned = 0.0;
    for (const BitVector& cut : sol.cuts) {
      SelectedCut sc;
      sc.block_index = static_cast<int>(b);
      sc.cut = cut;
      sc.metrics = compute_metrics(blocks[b], cut, latency);
      sc.merit = merit_of(sc.metrics, blocks[b].exec_freq());
      assigned += sc.merit;
      result.cuts.push_back(std::move(sc));
    }
    // Cuts are disjoint, so per-cut merits sum to the joint optimum.
    ISEX_ASSERT(std::abs(assigned - sol.total_merit) < 1e-6,
                "joint and per-cut merits disagree");
    result.total_merit += sol.total_merit;
  }
  return result;
}

}  // namespace

SelectionResult select_optimal(std::span<const Dfg> blocks, const LatencyModel& latency,
                               const Constraints& constraints, int num_instructions,
                               OptimalMode mode, const CutSearchOptions& search) {
  ISEX_CHECK(num_instructions >= 1, "need at least one instruction slot");
  Executor& executor = search.executor != nullptr ? *search.executor : serial_executor();
  const int max_per_block = std::min(num_instructions, 8);

  SelectionResult accounting;
  std::vector<BlockTable> tables(blocks.size());
  std::vector<int> m_of_block(blocks.size(), 0);

  // Runs the pending (block, m) identifications of one round through the
  // executor, then applies them to the tables in block order — identical
  // accounting and tables as a serial sweep.
  const auto fill_pending = [&](const std::vector<std::pair<std::size_t, int>>& pending) {
    std::vector<MultiCutResult> found(pending.size());
    executor.parallel_for(pending.size(), [&](std::size_t i) {
      const auto& [b, m] = pending[i];
      found[i] = cached_multi_cut(blocks[b], latency, constraints, m, search);
    });
    for (std::size_t i = 0; i < pending.size(); ++i) {
      apply(tables[pending[i].first], std::move(found[i]), pending[i].second, accounting);
    }
  };

  if (mode == OptimalMode::greedy_increments) {
    for (int round = 0; round < num_instructions; ++round) {
      std::vector<std::pair<std::size_t, int>> pending;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const int next = m_of_block[b] + 1;
        if (next <= max_per_block && needs_fill(tables[b], next)) pending.emplace_back(b, next);
      }
      fill_pending(pending);

      int best_block = -1;
      double best_gain = 0.0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const int next = m_of_block[b] + 1;
        if (next > max_per_block || static_cast<int>(tables[b].best.size()) <= next) continue;
        const double gain = tables[b].best[static_cast<std::size_t>(next)] -
                            tables[b].best[static_cast<std::size_t>(m_of_block[b])];
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_block = static_cast<int>(b);
        }
      }
      if (best_block < 0) break;
      ++m_of_block[static_cast<std::size_t>(best_block)];
    }
    return assemble(blocks, tables, m_of_block, latency, std::move(accounting));
  }

  // exact_dp: fill the tables completely up to max_per_block, then allocate
  // the Ninstr budget by dynamic programming. Each block's table fill is
  // sequential in m but blocks are independent: run whole blocks in parallel
  // with local accounting, merged in block order.
  {
    std::vector<BlockTable> filled(blocks.size());
    std::vector<SelectionResult> local(blocks.size());
    executor.parallel_for(blocks.size(), [&](std::size_t b) {
      for (int m = 1; m <= max_per_block; ++m) {
        if (!needs_fill(filled[b], m)) break;
        MultiCutResult r = cached_multi_cut(blocks[b], latency, constraints, m, search);
        if (!apply(filled[b], std::move(r), m, local[b])) break;
      }
    });
    tables = std::move(filled);
    for (const SelectionResult& l : local) {
      accounting.identification_calls += l.identification_calls;
      accounting.stats += l.stats;
    }
  }
  // Past blocks × max_per_block cuts every dp row is saturated: the cap keeps
  // the allocation and sizes the tables by the blocks, not by Ninstr.
  const int budget = static_cast<int>(
      std::min<std::size_t>(num_instructions, blocks.size() * max_per_block));
  std::vector<std::vector<double>> dp(blocks.size() + 1,
                                      std::vector<double>(budget + 1, 0.0));
  std::vector<std::vector<int>> take(blocks.size() + 1, std::vector<int>(budget + 1, 0));
  for (std::size_t b = 1; b <= blocks.size(); ++b) {
    const BlockTable& t = tables[b - 1];
    for (int k = 0; k <= budget; ++k) {
      dp[b][k] = dp[b - 1][k];
      take[b][k] = 0;
      const int limit = std::min<int>(k, static_cast<int>(t.best.size()) - 1);
      for (int m = 1; m <= limit; ++m) {
        const double v = dp[b - 1][k - m] + t.best[static_cast<std::size_t>(m)];
        if (v > dp[b][k] + 1e-12) {
          dp[b][k] = v;
          take[b][k] = m;
        }
      }
    }
  }
  int k = budget;
  for (std::size_t b = blocks.size(); b > 0; --b) {
    m_of_block[b - 1] = take[b][k];
    k -= take[b][k];
  }
  return assemble(blocks, tables, m_of_block, latency, std::move(accounting));
}

}  // namespace isex
