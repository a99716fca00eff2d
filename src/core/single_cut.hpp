// Exact single-cut identification (paper Section 6.1, Fig. 6) — the
// word-parallel enumeration engine.
//
// The search walks the implicit binary tree over the reverse-topologically
// ordered graph nodes with an explicit stack (no recursion). Because every
// descendant of a node is decided before the node itself, the incremental
// state collapses into word operations over precomputed closure rows
// (SearchTables / Dfg::finalize()):
//   * reach       — a decided node can reach the cut iff its descendant
//                   closure row intersects the cut bits (one AND-any);
//   * convexity   — a violating path u -> excluded -> member exists iff u's
//                   successor mask intersects the excluded-and-reaching
//                   bits (one AND-any);
//   * OUT(S)      — u becomes an output iff its data-successor mask leaves
//                   the cut (one ANDNOT-any); monotone, fixed at insertion;
//   * IN(S)       — *not* monotone (adding a producer internalises an
//                   input), so it only gates best-solution updates; counted
//                   over a pre-classified CSR of countable data producers;
//   * M(S)        — integer software-latency sums and rounded-up hardware
//                   cycles (the one Cycles type), frequency-weighted once.
// Output and convexity violations eliminate the whole subtree (Fig. 7).
//
// On top of the serial engine sits a deterministic subtree-parallel runner
// (CutSearchOptions). An eager split at a fixed candidate-decision depth
// queues the subtrees below it as independent tasks, each owning its state
// arrays. Worker loops on an Executor drain the queue, and every task, each
// time its own cut count crosses a fixed quantum, donates the pending
// 0-branch of its shallowest include as a new task, so a skewed, pruned
// tree still spreads over the pool. A sequential merge replays the serial
// engine's visitation order over the recorded best-cut events, so the
// returned cut, merit and every statistics counter are byte-identical to
// the serial run for any thread count.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/constraints.hpp"
#include "dfg/cut.hpp"
#include "dfg/dfg.hpp"
#include "latency/latency_model.hpp"

namespace isex {

class BudgetGate;
class CancelToken;
class Executor;
class ResultCache;
struct CacheCounters;

/// Version of the identification algorithms' observable behaviour (results
/// AND statistics, single- and multiple-cut). Bump it whenever a change to
/// the search could alter any output for some input — persisted memo files
/// carry it, so stale warm-start caches are rejected instead of silently
/// replaying the old algorithm's answers. (The word-parallel engine rebuild
/// deliberately kept this at 1: it is pinned byte-identical to the retained
/// reference implementation.)
inline constexpr int kIdentificationAlgorithmVersion = 1;

struct SingleCutResult {
  BitVector cut;        // best cut (empty if no cut has positive merit)
  double merit = 0.0;   // freq-weighted estimated cycles saved
  CutMetrics metrics;   // reference metrics of the best cut
  EnumerationStats stats;
};

/// Cumulative counters of the subtree-parallel runner. Thread-safe: one
/// sink may serve many concurrent searches (the Explorer wires one per
/// request and surfaces the totals as the report's "engine" section).
struct SearchEngineStats {
  /// Subtree tasks dispatched across all split searches: the eager split's
  /// plus the donated ones. Donation reads only each task's own cut count,
  /// so this is the same for any thread count and schedule, unless a
  /// budget gate exhausts or the cancel token trips mid-search: tasks stop
  /// donating then, and how many had donated by that point depends on the
  /// schedule.
  std::atomic<std::uint64_t> subtree_tasks{0};
  /// Of subtree_tasks, those donated by running tasks.
  std::atomic<std::uint64_t> donated_tasks{0};
  /// Searches that split into subtree tasks.
  std::atomic<std::uint64_t> split_searches{0};
  /// Searches that ran serially (split disabled, or branch-and-bound forced
  /// the serial engine — its bound consults the global best, which subtree
  /// tasks cannot share deterministically).
  std::atomic<std::uint64_t> serial_searches{0};
};

/// The one run context from the selection schemes down to the engines:
/// every per-run value an identification search may use. The schemes that
/// run identification (select_iterative, select_optimal,
/// select_area_constrained and the two portfolio strategies) take it as
/// their only run parameter, run their per-block work on `executor`, and
/// hand it on to cached_single_cut / cached_multi_cut and from there to the
/// engines.
///
/// The member order is part of the interface: perfbench's replay fills
/// SchemeInputs::search by brace elision from its last seven positional
/// values. Add members at the end (see scheme_inputs_test.cpp).
///
/// Results are byte-identical to the serial engine — cut, merit and all
/// statistics — for any executor, depth, thread count and cache, with two
/// carve-outs: branch_and_bound searches always run serially (counted in
/// SearchEngineStats::serial_searches), and a search_budget that exhausts
/// mid-search keeps only its *accounting* deterministic under parallelism
/// (see Constraints::search_budget).
struct CutSearchOptions {
  /// Where per-block work and subtree tasks run; null runs them inline on
  /// the caller.
  Executor* executor = nullptr;
  /// Identification memo table consulted by cached_single_cut /
  /// cached_multi_cut; null searches every time. The engines ignore it.
  ResultCache* cache = nullptr;
  /// Counter sink for this run's memo hits and misses (may be null): the
  /// cache increments it alongside its lifetime counters, so a report can
  /// attribute its own deltas while other runs share the cache.
  CacheCounters* cache_counters = nullptr;
  /// Candidate-decision depth of the eager split: the first split_depth
  /// candidate decisions run serially and queue up to 2^split_depth
  /// subtree tasks; 0 = serial. The eager split alone leaves most of a
  /// pruned tree in one task; donation is what balances the load, so
  /// depth 1 already keeps a pool busy on a large block. The multi-cut
  /// engine's recursive walk never splits.
  int split_depth = 0;
  /// Optional counter sink.
  SearchEngineStats* stats = nullptr;
  /// Shared search-budget gate. When set it *overrides*
  /// Constraints::search_budget: every search handed the same gate draws
  /// tickets from one pool, so a request spanning many identification calls
  /// can be budgeted as a whole (the exploration service's per-client
  /// budget). Accounting stays exact — the cuts_considered charged against
  /// the gate sum to min(demand, budget) — but as with any exhausting
  /// budget, *which* cuts fill the pool is only reproducible serially. The
  /// memo layer refuses to store results computed under a gate that was
  /// exhausted (they are partial; the cache key cannot see the gate).
  BudgetGate* budget = nullptr;
  /// Cooperative cancellation, polled at the budget gate's cadence (once
  /// per search-tree node). A token that never trips changes nothing —
  /// results stay byte-identical for any thread count. Once tripped the
  /// search returns its best-so-far with stats.cancelled set, and the memo
  /// layer refuses to store the result (same discipline as an exhausted
  /// gate: the cache key cannot see the token).
  CancelToken* cancel = nullptr;
};

/// Finds the cut maximising M(S) under `constraints` (paper Problem 1),
/// subtree-parallel under `options` (byte-identical results; see
/// CutSearchOptions).
SingleCutResult find_best_cut(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints,
                              const CutSearchOptions& options = {});

}  // namespace isex
