#include "emit/verify.hpp"

#include <cmath>

#include "afu/rewrite.hpp"

namespace isex {

RewriteVerification rewrite_and_verify(Workload& workload, std::span<const Dfg> blocks,
                                       const SelectionResult& selection,
                                       const LatencyModel& latency,
                                       const std::string& name_prefix,
                                       std::span<const std::string> cut_names) {
  RewriteVerification out;
  // Flag the instance before touching the module: a half-transformed module
  // must already count as mutated so it can never poison the name-keyed
  // extraction cache (see extract_workload in api/explorer.cpp).
  workload.mark_mutated();
  Module& module = workload.module();
  Function& fn = *module.find_function(workload.entry().name());
  const RewriteReport rewrite =
      rewrite_selection(module, fn, blocks, selection, latency, name_prefix, cut_names);
  out.instructions_added = rewrite.instructions_added;
  out.total_area_macs = rewrite.total_area_macs;
  out.custom_op_indices = rewrite.custom_op_indices;

  ExecResult after;
  out.bit_exact = workload.run(&after) == workload.expected_outputs();
  out.cycles_after = after.cycles;

  out.counts_match = true;
  for (std::size_t k = 0; k < rewrite.custom_op_indices.size(); ++k) {
    const auto op = static_cast<std::size_t>(rewrite.custom_op_indices[k]);
    const std::uint64_t measured =
        op < after.custom_invocations.size() ? after.custom_invocations[op] : 0;
    const double freq =
        blocks[static_cast<std::size_t>(selection.cuts[k].block_index)].exec_freq();
    const auto expected = static_cast<std::uint64_t>(std::llround(freq));
    out.custom_invocations += measured;
    out.expected_invocations += expected;
    if (measured != expected) out.counts_match = false;
  }
  return out;
}

}  // namespace isex
