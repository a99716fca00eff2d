// The traced replay: one exploration request driven through the library's
// layers in pipeline order — frame decode, workload load (parse, interpreter
// probe, verify, fingerprint), preprocess/extract through the extraction
// cache, scheme selection with the identification searches timed from the
// executor seam, rewrite-verify and emitters, report serialization — with a
// span around every call. It performs the same steps, in the same order, as
// Explorer::run, so its report must equal the pinned one byte for byte; the
// benchmark checks that before using any per-layer number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "trace.hpp"

namespace perfbench {

/// A generated `.isex` document plus what its header says (the benchmark
/// generated it, so the header needs no re-parsing on the replay path).
struct KernelDoc {
  std::string text;
  std::size_t module_offset = 0;  // where the `module` line starts
  std::string name;
  std::string entry;
  std::vector<std::int32_t> args;
  std::string output_segment;
  std::uint32_t output_count = 0;
};

/// Figures of one replayed request that per-layer metrics aggregate.
struct ReplayFacts {
  const char* engine = nullptr;  // "core.single_cut", "core.multi_cut" or null
  std::uint64_t cuts = 0;        // cuts considered by searches that really ran
  bool budget_exhausted = false;
  std::uint64_t subtree_tasks = 0;
  std::uint64_t serial_searches = 0;
  double dfg_nodes = 0.0;
  double module_text_bytes = 0.0;
  double report_bytes = 0.0;
  double artifact_bytes = 0.0;
};

/// Replays `request` (decoding it from a wire frame first when `via_frame`)
/// and returns the report JSON. `doc` must describe request.ir_text when it
/// is set. Spans go to `tracer` under request id `rid` (null = untraced).
isex::Json replay_request(const isex::Explorer& explorer, const isex::ExplorationRequest& request,
                          const KernelDoc* doc, bool via_frame, Tracer* tracer,
                          std::int64_t rid, ReplayFacts* facts);

}  // namespace perfbench
