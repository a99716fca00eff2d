#include "emit/plan.hpp"

#include <map>

namespace isex {

EmissionPlan plan_from_selection(std::string app_name, const Module* module,
                                 std::span<const Dfg> blocks, const SelectionResult& selection,
                                 std::span<const CustomOp> ops, std::string scheme,
                                 std::string name_prefix) {
  const WorkloadBundle bundle{std::move(app_name), blocks};
  const Module* const modules[] = {module};
  return plan_from_portfolio(std::span<const WorkloadBundle>(&bundle, 1), modules,
                             portfolio_from_single(selection, 1.0), ops, std::move(scheme),
                             std::move(name_prefix));
}

EmissionPlan plan_from_portfolio(std::span<const WorkloadBundle> bundles,
                                 std::span<const Module* const> modules,
                                 const PortfolioSelectionResult& selection,
                                 std::span<const CustomOp> ops, std::string scheme,
                                 std::string name_prefix) {
  ISEX_CHECK(modules.size() == bundles.size(),
             "plan_from_portfolio: one module entry (possibly null) per bundle");
  ISEX_CHECK(ops.empty() || ops.size() == selection.cuts.size(),
             "plan_from_portfolio: one CustomOp per selected instruction (or none)");
  EmissionPlan plan;
  plan.scheme = std::move(scheme);
  plan.name_prefix = std::move(name_prefix);

  // Duplicated workloads in one portfolio (the same kernel under two
  // weights, say) must not collide in the artifact tree: every repeated
  // sanitized name gets its bundle index as a suffix.
  std::map<std::string, int> name_uses;
  for (const WorkloadBundle& bundle : bundles) {
    ++name_uses[sanitize_artifact_name(bundle.name)];
  }
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    EmissionApp app;
    app.name = bundles[i].name.empty() ? "workload" + std::to_string(i) : bundles[i].name;
    app.dir = sanitize_artifact_name(app.name);
    if (name_uses[app.dir] > 1) app.dir += "_" + std::to_string(i);
    app.weight = bundles[i].weight;
    app.module = modules[i];
    app.blocks = bundles[i].blocks;
    plan.apps.push_back(std::move(app));
  }

  for (std::size_t j = 0; j < selection.cuts.size(); ++j) {
    const PortfolioSelectedCut& sc = selection.cuts[j];
    EmissionAfu afu;
    if (!ops.empty()) {
      afu.op = ops[j];
      afu.rom_module = modules[static_cast<std::size_t>(sc.origin.bundle_index)];
    } else {
      afu.op.name = plan.name_prefix + std::to_string(j);
    }
    afu.origin_app = sc.origin.bundle_index;
    afu.origin_block = sc.origin.block_index;
    afu.merit = sc.merit;
    afu.weighted_merit = sc.weighted_merit;
    afu.metrics = sc.metrics;
    for (std::size_t k = 0; k < sc.served.size(); ++k) {
      const PortfolioBlockRef& ref = sc.served[k];
      EmissionInstance inst;
      inst.app_index = ref.bundle_index;
      inst.block_index = ref.block_index;
      inst.block = bundles[static_cast<std::size_t>(ref.bundle_index)]
                       .blocks[static_cast<std::size_t>(ref.block_index)]
                       .name();
      inst.nodes = sc.served_cuts[k].to_string();
      afu.served.push_back(std::move(inst));
      afu.served_cut_bits.push_back(sc.served_cuts[k]);
      EmissionApp& app = plan.apps[static_cast<std::size_t>(ref.bundle_index)];
      if (app.afus.empty() || app.afus.back() != static_cast<int>(j)) {
        app.afus.push_back(static_cast<int>(j));
      }
    }
    plan.afus.push_back(std::move(afu));
  }
  return plan;
}

}  // namespace isex
