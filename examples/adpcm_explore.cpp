// The paper's Fig. 3 walk-through on the real adpcm decoder: preprocess,
// extract the hot block's DFG, and watch the best instruction grow from M1
// (2 inputs / 1 output) to M2 (3 inputs) to the disconnected M2+M3 as the
// microarchitectural constraints relax. Finishes with one Explorer pipeline
// run that selects, rewrites and validates the extension and writes its
// Verilog to an artifact directory (the first argument, or a fresh
// directory under the system temp dir).
#include <filesystem>
#include <fstream>
#include <iostream>

#include "api/explorer.hpp"
#include "support/table.hpp"

using namespace isex;

int main(int argc, char** argv) {
  const Explorer explorer;

  Workload w = find_workload("adpcmdecode");
  std::cout << "adpcm decoder: " << w.entry().num_blocks()
            << " blocks before if-conversion\n";
  w.preprocess();
  std::cout << "               " << w.entry().num_blocks()
            << " blocks after the MachSUIF-style preprocessing pipeline\n\n";

  const std::vector<Dfg> graphs = w.extract_dfgs();
  const Dfg* body = nullptr;
  for (const Dfg& g : graphs) {
    if (body == nullptr || g.candidates().size() > body->candidates().size()) body = &g;
  }
  std::cout << "hot block '" << body->name() << "': " << body->candidates().size()
            << " candidate operations, executed " << body->exec_freq() << " times\n\n";

  TextTable table({"constraints", "ops", "IN", "OUT", "sw cycles", "hw cycles",
                   "merit/exec", "paper analogue"});
  const struct {
    int nin, nout;
    const char* analogue;
  } rows[] = {
      {2, 1, "M1 (approx. 16x4 multiply)"},
      {3, 1, "M2 (M1 + accumulate/saturate)"},
      {6, 3, "M2+M3 (disconnected)"},
  };
  for (const auto& row : rows) {
    Constraints cons;
    cons.max_inputs = row.nin;
    cons.max_outputs = row.nout;
    const SingleCutResult r = explorer.identify(*body, cons);
    table.add_row({std::to_string(row.nin) + "/" + std::to_string(row.nout),
                   TextTable::num(r.metrics.num_ops), TextTable::num(r.metrics.inputs),
                   TextTable::num(r.metrics.outputs), TextTable::num(r.metrics.sw_cycles),
                   TextTable::num(r.metrics.hw_cycles),
                   TextTable::num(r.merit / body->exec_freq(), 2), row.analogue});
  }
  table.print(std::cout);

  // Select with 4 read / 2 write ports, rewrite, validate and emit — one
  // request.
  const std::filesystem::path out_dir =
      argc > 1 ? std::filesystem::path(argv[1])
               : std::filesystem::temp_directory_path() / "isex_adpcm_explore";
  ExplorationRequest request;
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.num_instructions = 2;
  request.emission.verify_rewrites = true;
  request.emission.targets = {"verilog", "c-intrinsics", "manifest"};
  request.emission.out_dir = out_dir.string();
  const ExplorationReport report = explorer.run(w, request);

  std::cout << "\nselected " << report.cuts.size() << " instructions; rewrite "
            << (report.validation.bit_exact ? "bit-exact" : "MISMATCH") << "; cycles "
            << report.validation.cycles_before << " -> " << report.validation.cycles_after
            << " (speedup " << TextTable::num(report.validation.measured_speedup, 3)
            << "x); " << report.emission.artifacts.size() << " artifacts in " << out_dir.string()
            << "\n\n";

  std::ifstream verilog(out_dir / "afu" / "isex0.v");
  std::cout << "Verilog for the first selected AFU (afu/isex0.v):\n\n" << verilog.rdbuf();
  return report.validation.bit_exact ? 0 : 1;
}
