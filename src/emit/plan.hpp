// Building the fully-resolved EmissionPlan the emitters consume, from either
// a single-application SelectionResult or a PortfolioSelectionResult (one
// AFU per selected instruction, instantiated in every serving application).
// The Explorer plans every run as a portfolio.
#pragma once

#include <span>
#include <string>

#include "core/portfolio_select.hpp"
#include "core/selection.hpp"
#include "emit/emitter.hpp"

namespace isex {

/// Plan for one application — the one-bundle case of plan_from_portfolio:
/// one instruction per selected cut, in selection order. `ops` carries the
/// synthesized CustomOps (one per cut; pass empty when no module-consuming
/// emitter runs — instruction names then default to name_prefix + index).
/// `module` may be null for graph-only requests.
EmissionPlan plan_from_selection(std::string app_name, const Module* module,
                                 std::span<const Dfg> blocks, const SelectionResult& selection,
                                 std::span<const CustomOp> ops, std::string scheme,
                                 std::string name_prefix);

/// Plan for a portfolio: one instruction per portfolio cut (named
/// name_prefix + index), attributed to every (application, block) instance
/// it serves; each application lists the instructions its wrapper
/// instantiates; an unnamed bundle i becomes application "workload<i>".
/// `modules` parallels `bundles` (null entries for graph-only applications);
/// `ops` as in plan_from_selection.
EmissionPlan plan_from_portfolio(std::span<const WorkloadBundle> bundles,
                                 std::span<const Module* const> modules,
                                 const PortfolioSelectionResult& selection,
                                 std::span<const CustomOp> ops, std::string scheme,
                                 std::string name_prefix);

}  // namespace isex
