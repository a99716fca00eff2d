// Section 8 area claim: "the area investment needed to implement the
// special datapaths for the given benchmarks and for the largest chosen
// graphs was within the area of a couple of multiply-accumulators."
// This binary selects instructions for the Fig. 11 benchmarks (with AFU
// construction enabled in the request) and prints each AFU's area in
// 32-bit-MAC equivalents.
#include <iostream>

#include "api/explorer.hpp"
#include "support/table.hpp"

using namespace isex;

int main() {
  const Explorer explorer;
  std::cout << "=== Section 8 area claim: AFU datapath area (MAC equivalents) ===\n\n";

  TextTable table({"workload", "instr", "ops", "IN", "OUT", "hw cycles", "area (MACs)"});
  double worst_total = 0.0;
  for (Workload& w : fig11_workloads()) {
    ExplorationRequest request;
    request.scheme = "iterative";
    request.constraints.max_inputs = 4;
    request.constraints.max_outputs = 2;
    request.constraints.branch_and_bound = true;
    request.num_instructions = 4;
    request.emission.build_afus = true;
    request.name_prefix = w.name();
    const ExplorationReport report = explorer.run(w, request);

    for (std::size_t i = 0; i < report.afus.size(); ++i) {
      const AfuReport& afu = report.afus[i];
      const CutReport& cut = report.cuts[i];
      table.add_row({w.name(), "#" + std::to_string(i), TextTable::num(cut.metrics.num_ops),
                     TextTable::num(cut.metrics.inputs), TextTable::num(cut.metrics.outputs),
                     TextTable::num(afu.latency_cycles), TextTable::num(afu.area_macs, 3)});
    }
    table.add_row({w.name(), "TOTAL", "", "", "", "", TextTable::num(report.afu_area_macs, 3)});
    worst_total = std::max(worst_total, report.afu_area_macs);
  }
  table.print(std::cout);
  std::cout << "\nlargest per-benchmark total: " << TextTable::num(worst_total, 3)
            << " MACs — paper: \"within the area of a couple of multiply-accumulators\" -> "
            << (worst_total <= 2.5 ? "CONFIRMED" : "EXCEEDED") << "\n";
  return 0;
}
