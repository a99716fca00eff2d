// The unified pipeline facade of the reproduction.
//
// The paper's flow is fixed — profile the application, build per-block DFGs,
// identify cuts under the Nin/Nout microarchitectural constraints, select up
// to Ninstr instructions, and account the AFU — and `Explorer` runs all of
// it behind one call: an ExplorationRequest in, a structured (JSON
// round-trippable) ExplorationReport out. Selection schemes are resolved by
// name against a SchemeRegistry, and the per-block identification searches
// run across a thread pool when the request asks for more than one thread
// (results are bit-identical to the single-threaded run).
//
//   Explorer ex;
//   ExplorationRequest req;
//   req.workload = "adpcmdecode";
//   req.scheme = "iterative";
//   req.constraints.max_inputs = 4;
//   req.constraints.max_outputs = 2;
//   ExplorationReport report = ex.run(req);
//   std::cout << report.to_json_string();
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/portfolio.hpp"
#include "api/report.hpp"
#include "api/scheme.hpp"
#include "cache/result_cache.hpp"
#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"
#include "dfg/dfg.hpp"
#include "emit/emitter.hpp"
#include "latency/latency_model.hpp"
#include "workloads/workload.hpp"

namespace isex {

/// A single-application exploration request; the run fields it shares with
/// MultiExplorationRequest live in RunOptions.
struct ExplorationRequest : RunOptions {
  /// Workload registry name (see workload_names()); leave empty to explore
  /// the user-provided `graphs` instead.
  std::string workload;
  /// User-provided per-block DFGs (used when `workload` is empty). The base
  /// cycle count then falls back to the blocks' static cycle estimate.
  std::vector<Dfg> graphs;
  /// Textual `.isex` workload document (see text/workload_file.hpp): the
  /// kernel travels inside the request, so a service client can explore a
  /// graph the server has never seen. Mutually exclusive with `workload`;
  /// takes precedence over `graphs`. The parsed twin of a registry kernel
  /// shares the extraction cache with it (keys are content-fingerprinted).
  /// With use_cache, a document the cache has loaded before is not loaded
  /// again unless the run reads its module or misses the extraction cache
  /// (ResultCache's load memo).
  std::string ir_text;

  /// Selection scheme name resolved against the registry ("iterative",
  /// "optimal", "optimal-dp", "clubbing", "maxmiso", "area", or user-added).
  std::string scheme = "iterative";
  /// Silicon budget options for the "area" scheme (its instruction cap is
  /// taken from num_instructions).
  AreaSelectOptions area;
  /// DFG extraction options (e.g. admit ROM-hinted loads, Section 9).
  DfgOptions dfg_options;

  /// The emission options this request asks for — `emission` itself.
  EmissionOptions effective_emission() const { return emission; }
};

/// Optional per-run instrumentation, threaded through the pipeline by the
/// run()/run_portfolio() overloads below. The exploration service uses it to
/// stream phase events to clients and to enforce per-client search budgets;
/// plain library callers never need it.
struct RunHooks {
  /// Invoked on the pipeline thread at phase boundaries, with a small JSON
  /// payload per phase:
  ///   "extracted"  — profiling/DFG extraction done (num_blocks, base_cycles,
  ///                  extract_ms; portfolios add a per-workload array);
  ///   "identified" — identification searches done (identification_calls,
  ///                  cuts_considered, cache hit/miss deltas so far);
  ///   "selected"   — the instruction set is fixed (num_cuts, total merit,
  ///                  estimated/weighted speedup).
  /// Exceptions thrown by the callback propagate out of the run. Keep it
  /// cheap — the pipeline blocks on it.
  std::function<void(const std::string& phase, const Json& data)> on_phase;
  /// Shared search-budget gate for every single-cut identification of this
  /// run: all searches draw on one ticket pool, so the run's aggregate
  /// cuts_considered pins exactly at min(demand, budget) — the service's
  /// per-client budget (see CutSearchOptions::budget). Null = per-search
  /// Constraints::search_budget semantics, unchanged.
  BudgetGate* budget_gate = nullptr;
  /// Shared cancel token for this run (may be null). The pipeline polls it
  /// inside every identification search and at phase boundaries; a tripped
  /// token yields a best-so-far report flagged partial (reason attached)
  /// instead of an error, and suppresses artifact emission. The service's
  /// per-job deadline and ceiling cancel through this. When set it takes
  /// precedence over request.deadline_ms — set a DeadlineTimer on the token
  /// instead.
  CancelToken* cancel = nullptr;
};

class Explorer {
 public:
  /// `registry` defaults to SchemeRegistry::global() and `emitters` to
  /// EmitterRegistry::global(); the latency/area model applies to every
  /// request run through this explorer, and `cache_config` sizes the
  /// explorer-owned ResultCache.
  explicit Explorer(LatencyModel latency = LatencyModel::standard_018um(),
                    SchemeRegistry* registry = nullptr,
                    ResultCacheConfig cache_config = {},
                    EmitterRegistry* emitters = nullptr);

  /// As above, but memoizing through a caller-provided cache instead of an
  /// explorer-owned one. Several explorers (or a long-lived service and its
  /// per-request runs) may share `cache`; ResultCache is internally
  /// synchronized, and shared use is byte-identical to exclusive use.
  /// Throws isex::Error when `cache` is null.
  Explorer(LatencyModel latency, std::shared_ptr<ResultCache> cache,
           SchemeRegistry* registry = nullptr, EmitterRegistry* emitters = nullptr);

  const LatencyModel& latency() const { return latency_; }
  SchemeRegistry& registry() const { return *registry_; }
  /// The artifact-emission backends this explorer resolves
  /// EmissionOptions.targets against.
  EmitterRegistry& emitters() const { return *emitters_; }
  /// The memoization layer (explorer-owned, or the shared cache this
  /// explorer was constructed over). Internally synchronized; use it to
  /// inspect counters, clear state, or save/load a warm-start file.
  ResultCache& cache() const { return *cache_; }
  /// Shared handle to the same cache, for wiring further explorers or a
  /// service-level ResultStore to this explorer's memo state.
  const std::shared_ptr<ResultCache>& cache_handle() const { return cache_; }

  // Every entry point below runs the same pipeline: it builds the list of
  // applications (one here, N for a portfolio) and projects the outcome
  // into its report type. The hooks stream phase boundaries and thread a
  // shared budget gate and cancel token through the searches; results are
  // identical with or without hooks (modulo a gate that exhausts or a token
  // that trips).

  /// Runs the whole pipeline on request.ir_text, request.workload (resolved
  /// against the workload registry) or request.graphs, in that order.
  ExplorationReport run(const ExplorationRequest& request, const RunHooks& hooks = {}) const;

  /// Runs the pipeline on a caller-owned workload (bring-your-own Module).
  /// request.workload is ignored; with emission.verify_rewrites the module
  /// is transformed in place.
  ExplorationReport run(Workload& workload, const ExplorationRequest& request,
                        const RunHooks& hooks = {}) const;

  /// Identification + selection on pre-extracted graphs. No module is
  /// available, so AFU construction and rewriting are rejected; the base
  /// cycle count is the blocks' static single-issue estimate.
  ExplorationReport run_blocks(std::span<const Dfg> blocks, const ExplorationRequest& request,
                               const RunHooks& hooks = {}) const;

  /// Runs a batched multi-application exploration: extracts every workload
  /// (through the extraction cache), hands the weighted bundles to a
  /// portfolio-capable scheme under the shared budgets, and reports
  /// per-application speedups, instruction attribution and cross-workload
  /// cache sharing. Requests naming a single-application scheme are
  /// accepted only for portfolios of exactly one workload (throws an
  /// isex::Error listing the portfolio-capable names otherwise).
  PortfolioReport run_portfolio(const MultiExplorationRequest& request,
                                const RunHooks& hooks = {}) const;

  // --- single-block identification (paper Problem 1) ----------------------
  /// Best single cut of one block under `constraints`. Memoized through the
  /// explorer's cache unless `use_cache` is false (identical result either
  /// way — a hit replays the cold search byte-for-byte).
  SingleCutResult identify(const Dfg& block, const Constraints& constraints,
                           bool use_cache = true) const;
  /// Best set of up to `num_cuts` disjoint cuts of one block (memoized like
  /// identify()).
  MultiCutResult identify_multi(const Dfg& block, const Constraints& constraints,
                                int num_cuts, bool use_cache = true) const;

 private:
  LatencyModel latency_;
  SchemeRegistry* registry_;
  std::shared_ptr<ResultCache> cache_;
  EmitterRegistry* emitters_;
};

}  // namespace isex
