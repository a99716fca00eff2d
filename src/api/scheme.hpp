// Pluggable instruction-selection schemes behind one interface, plus the
// name-keyed registry the Explorer facade resolves requests against.
//
// The interface speaks *portfolios*: SchemeInputs carries one
// WorkloadBundle (block graphs, weight, base cycles) per application, and a
// scheme returns a PortfolioSelectionResult attributing every selected
// instruction to the applications it serves. Single-application schemes —
// the paper's Iterative and Optimal, the Clubbing/MaxMISO baselines and the
// Section 9 area extension — accept exactly one bundle and are wrapped
// through portfolio_from_single; the portfolio strategies (joint-iterative,
// merge-then-select) consume any number. Users add their own with
// `SchemeRegistry::global().add(...)` and select them by name through an
// ExplorationRequest or MultiExplorationRequest.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/area_select.hpp"
#include "core/portfolio_select.hpp"
#include "core/selection.hpp"
#include "latency/latency_model.hpp"
#include "support/parallel.hpp"
#include "support/registry.hpp"

namespace isex {

/// Everything a scheme may consume. Schemes must be pure functions of these
/// inputs (no hidden state): the Explorer relies on that for determinism
/// across thread counts, and the memoization layer relies on it for
/// correctness of cached identification results.
struct SchemeInputs {
  /// One bundle per application. Single-workload requests arrive as a
  /// portfolio of one bundle with weight 1.
  std::span<const WorkloadBundle> bundles;
  const LatencyModel& latency;
  const Constraints& constraints;
  /// Ninstr: maximum number of special instructions, shared across the
  /// whole portfolio (the joint opcode budget).
  int num_instructions = 16;
  /// Extra options for area-aware schemes (ignored by the others). For
  /// portfolio schemes `area.max_area_macs <= 0` means "no joint area
  /// budget"; the single-workload "area" scheme keeps its own semantics.
  AreaSelectOptions area;
  /// The run context every identification of this request searches with,
  /// passed whole (see CutSearchOptions for each member's contract).
  /// Portfolio schemes fan `search.cache_counters` out into per-bundle
  /// scoped sinks so cross-workload sharing is counted.
  CutSearchOptions search;

  /// The blocks of the portfolio's only bundle. Single-application schemes
  /// call this first: it throws an isex::Error naming `scheme` when the
  /// portfolio holds more than one bundle.
  std::span<const Dfg> single_workload_blocks(const std::string& scheme) const;
};

class SelectionScheme {
 public:
  virtual ~SelectionScheme() = default;
  /// Registry key, e.g. "iterative".
  virtual const std::string& name() const = 0;
  /// One-line human description for listings and reports.
  virtual const std::string& description() const = 0;
  /// True when the scheme selects jointly over portfolios of any size;
  /// false when it requires exactly one bundle.
  virtual bool supports_portfolio() const { return false; }
  virtual PortfolioSelectionResult select(const SchemeInputs& inputs) const = 0;
};

/// Unknown-name lookup failure of a SchemeRegistry (see NotFoundError).
using SchemeNotFoundError = NotFoundError<SelectionScheme>;

/// Thread-safe name-keyed scheme registry. The global() instance comes with
/// the built-in schemes:
///   iterative         — paper Section 6.3 (single-cut identification + collapse)
///   optimal           — paper Section 6.2/Fig. 10 (greedy best(b, m) increments)
///   optimal-dp        — exact DP allocation over the same best(b, m) tables
///   clubbing          — Clubbing baseline ranked by merit
///   maxmiso           — MaxMISO baseline ranked by merit
///   area              — Section 9 extension: knapsack under an AFU area budget
///   joint-iterative   — portfolio: Iterative generalized across weighted
///                       applications under the shared opcode budget
///   merge-then-select — portfolio: per-application candidates, fingerprint
///                       dedup, shared knapsack-style selection
class SchemeRegistry : public Registry<SelectionScheme> {
 public:
  /// The process-wide registry (built-ins pre-registered).
  static SchemeRegistry& global();

  /// An empty registry (tests, sandboxing user schemes).
  SchemeRegistry() : Registry("selection scheme") {}

  /// Names of the registered schemes that support portfolios of any size,
  /// sorted.
  std::vector<std::string> portfolio_names() const;
};

/// Registers the built-in schemes into `registry` (used by global(); exposed
/// so tests can build isolated registries with the standard contents).
void register_builtin_schemes(SchemeRegistry& registry);

}  // namespace isex
