// Iterative selection measures each cut on the block with the earlier cuts
// collapsed. Collapsing changes only edges around the fused node, so a cut's
// area, software cycles and hardware critical path must equal a re-measure
// on the original block. ROM loads make the check bite: a survivor that
// lost its table size would price its ROM at 0 MACs.
#include <gtest/gtest.h>

#include "core/iterative_select.hpp"
#include "dfg/cut.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

TEST(IterativeSelect, CollapsedCutsMeasureAsOnTheOriginalBlock) {
  const LatencyModel latency = LatencyModel::standard_018um();
  const int grid[][2] = {{2, 1}, {3, 1}, {4, 1}, {2, 2}, {4, 2}, {8, 4}};
  DfgOptions options;
  options.allow_rom_loads = true;
  int rom_cuts = 0;
  for (Workload& w : all_workloads()) {
    w.preprocess();
    const std::vector<Dfg> blocks = w.extract_dfgs(options);
    for (const auto& [nin, nout] : grid) {
      Constraints constraints;
      constraints.max_inputs = nin;
      constraints.max_outputs = nout;
      const SelectionResult selection = select_iterative(blocks, latency, constraints, 16);
      for (std::size_t k = 0; k < selection.cuts.size(); ++k) {
        const SelectedCut& sc = selection.cuts[k];
        const Dfg& block = blocks[static_cast<std::size_t>(sc.block_index)];
        const CutMetrics original = compute_metrics(block, sc.cut, latency);
        // `inputs` is left out: a collapsed multi-output cut can still count
        // its fused node's operands differently (an open ROADMAP item).
        EXPECT_DOUBLE_EQ(sc.metrics.area_macs, original.area_macs)
            << w.name() << " " << nin << "/" << nout << " cut " << k;
        EXPECT_EQ(sc.metrics.sw_cycles, original.sw_cycles)
            << w.name() << " " << nin << "/" << nout << " cut " << k;
        EXPECT_DOUBLE_EQ(sc.metrics.hw_critical, original.hw_critical)
            << w.name() << " " << nin << "/" << nout << " cut " << k;
        bool has_rom = false;
        sc.cut.for_each([&](std::size_t i) { has_rom = has_rom || block.node(NodeId{i}).rom_load; });
        if (has_rom && k > 0) ++rom_cuts;
      }
    }
  }
  // Later cuts holding a ROM load are the ones a collapse can misprice.
  EXPECT_GT(rom_cuts, 0);
}

}  // namespace
}  // namespace isex
