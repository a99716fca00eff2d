// Reference interpreter for the isex IR.
//
// Executes a function over a Memory image, optionally collecting a per-block
// execution Profile and a single-issue cycle estimate from a LatencyModel.
// Custom (AFU) instructions are executed from their recorded CustomOp
// micro-programs, so rewritten modules can be validated bit-for-bit against
// the originals and the cycle savings measured directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "interp/memory.hpp"
#include "interp/profile.hpp"
#include "ir/module.hpp"
#include "latency/latency_model.hpp"

namespace isex {

struct ExecResult {
  std::int32_t return_value = 0;
  std::uint64_t instructions = 0;  // dynamic instruction count (phis excluded)
  std::uint64_t cycles = 0;        // single-issue cycle estimate
  /// Executions per custom op, indexed by the module custom-op index (grown
  /// on demand — shorter than num_custom_ops() means the tail never ran).
  /// Drives the rewrite-verify check that every synthesized instruction is
  /// invoked exactly as often as its block executed in the baseline.
  std::vector<std::uint64_t> custom_invocations;
};

struct InterpOptions {
  std::uint64_t max_steps = 200'000'000;  // dynamic instruction budget
};

class Interpreter {
 public:
  using Options = InterpOptions;

  Interpreter(const Module& module, Memory& memory,
              const LatencyModel& latency = LatencyModel::standard_018um(),
              Options options = {});

  /// Runs `fn` with the given arguments. If `profile` is non-null, block
  /// execution counts are accumulated into it.
  ExecResult run(const Function& fn, std::span<const std::int32_t> args,
                 Profile* profile = nullptr);

  /// Evaluates one custom op micro-program (exposed for AFU unit tests).
  std::vector<std::int32_t> eval_custom(const CustomOp& op,
                                        std::span<const std::int32_t> inputs) const;

 private:
  /// eval_custom into `outputs`, with `slots` holding the inputs and the
  /// micro results; allocates only to grow the two vectors.
  void eval_custom_into(const CustomOp& op, std::span<const std::int32_t> inputs,
                        std::vector<std::int32_t>& slots,
                        std::vector<std::int32_t>& outputs) const;

  const Module& module_;
  Memory& memory_;
  LatencyModel latency_;
  Options options_;
};

}  // namespace isex
