#include "api/scheme.hpp"

#include "core/baseline_select.hpp"
#include "core/iterative_select.hpp"
#include "core/optimal_select.hpp"
#include "support/assert.hpp"

namespace isex {

namespace {

/// Adapts one of the single-application free-function schemes to the
/// portfolio interface: exactly one bundle in, its SelectionResult wrapped
/// through portfolio_from_single out.
class SingleWorkloadScheme : public SelectionScheme {
 public:
  using Fn = SelectionResult (*)(const SchemeInputs&);

  SingleWorkloadScheme(std::string name, std::string description, Fn fn)
      : name_(std::move(name)), description_(std::move(description)), fn_(fn) {}

  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }
  PortfolioSelectionResult select(const SchemeInputs& in) const override {
    // The one authoritative one-bundle check; fn_ may index bundles[0].
    (void)in.single_workload_blocks(name_);
    return portfolio_from_single(fn_(in), in.bundles[0].weight);
  }

 private:
  std::string name_;
  std::string description_;
  Fn fn_;
};

/// Adapts a portfolio free function to the interface.
class PortfolioScheme : public SelectionScheme {
 public:
  using Fn = PortfolioSelectionResult (*)(const SchemeInputs&);

  PortfolioScheme(std::string name, std::string description, Fn fn)
      : name_(std::move(name)), description_(std::move(description)), fn_(fn) {}

  const std::string& name() const override { return name_; }
  const std::string& description() const override { return description_; }
  bool supports_portfolio() const override { return true; }
  PortfolioSelectionResult select(const SchemeInputs& in) const override { return fn_(in); }

 private:
  std::string name_;
  std::string description_;
  Fn fn_;
};

}  // namespace

std::span<const Dfg> SchemeInputs::single_workload_blocks(const std::string& scheme) const {
  if (bundles.size() != 1) {
    throw Error("scheme '" + scheme + "' selects for a single application but the request "
                "carries " + std::to_string(bundles.size()) +
                " workloads; pick a portfolio-capable scheme (see "
                "SchemeRegistry::portfolio_names())");
  }
  return bundles[0].blocks;
}

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "iterative", "single-cut identification + collapse (paper Section 6.3)",
      [](const SchemeInputs& in) {
        return select_iterative(in.bundles[0].blocks, in.latency, in.constraints,
                                in.num_instructions, in.search);
      }));
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "optimal", "greedy best(b, m) increments over multiple-cut tables (Section 6.2)",
      [](const SchemeInputs& in) {
        return select_optimal(in.bundles[0].blocks, in.latency, in.constraints,
                              in.num_instructions, OptimalMode::greedy_increments, in.search);
      }));
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "optimal-dp", "exact DP allocation over the best(b, m) tables",
      [](const SchemeInputs& in) {
        return select_optimal(in.bundles[0].blocks, in.latency, in.constraints,
                              in.num_instructions, OptimalMode::exact_dp, in.search);
      }));
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "clubbing", "Clubbing baseline, candidates ranked by merit",
      [](const SchemeInputs& in) {
        return select_baseline(in.bundles[0].blocks, in.latency,
                               in.constraints, in.num_instructions,
                               BaselineAlgorithm::clubbing, in.search.executor);
      }));
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "maxmiso", "MaxMISO baseline, candidates ranked by merit",
      [](const SchemeInputs& in) {
        return select_baseline(in.bundles[0].blocks, in.latency,
                               in.constraints, in.num_instructions,
                               BaselineAlgorithm::max_miso, in.search.executor);
      }));
  registry.add(std::make_unique<SingleWorkloadScheme>(
      "area", "knapsack selection under an AFU silicon budget (Section 9 extension)",
      [](const SchemeInputs& in) {
        AreaSelectOptions options = in.area;
        options.num_instructions = in.num_instructions;
        return select_area_constrained(in.bundles[0].blocks, in.latency, in.constraints,
                                       options, in.search);
      }));
  registry.add(std::make_unique<PortfolioScheme>(
      "joint-iterative",
      "portfolio: Iterative generalized across weighted applications under the shared "
      "opcode budget, with fingerprint-grouped shared kernels",
      [](const SchemeInputs& in) {
        return select_portfolio_iterative(in.bundles, in.latency, in.constraints,
                                          in.num_instructions, in.search);
      }));
  registry.add(std::make_unique<PortfolioScheme>(
      "merge-then-select",
      "portfolio: per-application Iterative candidates, fingerprint-keyed dedup, shared "
      "knapsack-style selection (joint opcode and optional area budget)",
      [](const SchemeInputs& in) {
        return select_portfolio_merge(in.bundles, in.latency, in.constraints,
                                      in.num_instructions, in.area.max_area_macs,
                                      in.area.area_grid_macs, in.search);
      }));
}

SchemeRegistry& SchemeRegistry::global() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    register_builtin_schemes(*r);
    return r;
  }();
  return *registry;
}

std::vector<std::string> SchemeRegistry::portfolio_names() const {
  std::vector<std::string> out;
  for (std::string& name : names()) {
    if (get(name).supports_portfolio()) out.push_back(std::move(name));
  }
  return out;
}

}  // namespace isex
