#include "interp/interpreter.hpp"

#include <array>
#include <vector>

#include "ir/eval.hpp"

namespace isex {

namespace {

/// One instruction as the step loop reads it: operands and result as
/// indices into the run's value slots.
struct Step {
  Opcode op;
  std::uint32_t result;  // the result's slot; the scratch slot when none
  std::uint32_t a;       // operand slots; the zero slot when absent
  std::uint32_t b;
  std::uint32_t c;
  const Instruction* ins;  // targets, phi incomings, custom operands, imm
};

}  // namespace

Interpreter::Interpreter(const Module& module, Memory& memory, const LatencyModel& latency,
                         Options options)
    : module_(module), memory_(memory), latency_(latency), options_(options) {}

void Interpreter::eval_custom_into(const CustomOp& op, std::span<const std::int32_t> inputs,
                                   std::vector<std::int32_t>& slots,
                                   std::vector<std::int32_t>& outputs) const {
  ISEX_CHECK(static_cast<int>(inputs.size()) == op.num_inputs,
             "custom op input arity mismatch: " + op.name);
  slots.assign(static_cast<std::size_t>(op.num_inputs) + op.micros.size(), 0);
  for (int i = 0; i < op.num_inputs; ++i) slots[static_cast<std::size_t>(i)] = inputs[i];

  auto slot = [&](int idx) -> std::int32_t {
    ISEX_ASSERT(idx >= 0 && static_cast<std::size_t>(idx) < slots.size(),
                "custom op operand index out of range");
    return slots[static_cast<std::size_t>(idx)];
  };

  for (std::size_t m = 0; m < op.micros.size(); ++m) {
    const CustomOp::Micro& mi = op.micros[m];
    std::int32_t result = 0;
    if (mi.op == Opcode::konst) {
      result = static_cast<std::int32_t>(mi.imm);
    } else if (mi.op == Opcode::load) {
      // ROM lookup inside the AFU (Section 9 extension): imm names a
      // read-only module segment, operand a is the index into it.
      const auto& segs = module_.segments();
      ISEX_CHECK(mi.imm >= 0 && static_cast<std::size_t>(mi.imm) < segs.size(),
                 "AFU ROM segment index out of range");
      const MemSegment& seg = segs[static_cast<std::size_t>(mi.imm)];
      ISEX_CHECK(seg.read_only, "AFU ROM references a writable segment");
      const std::uint32_t index = static_cast<std::uint32_t>(slot(mi.a));
      ISEX_CHECK(index < seg.size_words, "AFU ROM index out of range");
      result = index < seg.init.size() ? seg.init[index] : 0;
    } else {
      result = eval_op(mi.op, slot(mi.a), mi.b >= 0 ? slot(mi.b) : 0, mi.c >= 0 ? slot(mi.c) : 0);
    }
    slots[static_cast<std::size_t>(op.num_inputs) + m] = result;
  }

  outputs.clear();
  for (int out : op.outputs) outputs.push_back(slot(out));
}

std::vector<std::int32_t> Interpreter::eval_custom(const CustomOp& op,
                                                   std::span<const std::int32_t> inputs) const {
  std::vector<std::int32_t> scratch;
  std::vector<std::int32_t> outputs;
  outputs.reserve(op.outputs.size());
  eval_custom_into(op, inputs, scratch, outputs);
  return outputs;
}

ExecResult Interpreter::run(const Function& fn, std::span<const std::int32_t> args,
                            Profile* profile) {
  ISEX_CHECK(static_cast<int>(args.size()) == fn.num_params(),
             "argument count mismatch calling " + fn.name());

  // One slot per value, then a slot that stays 0 (absent operands read it)
  // and one that results of no interest are written to.
  const auto num_values = static_cast<std::uint32_t>(fn.num_values());
  const std::uint32_t zero_slot = num_values;
  const std::uint32_t scratch_slot = num_values + 1;
  std::vector<std::int32_t> slots(num_values + 2, 0);
  for (std::uint32_t v = 0; v < num_values; ++v) {
    const ValueDef& def = fn.value(ValueId{v});
    if (def.kind == ValueKind::param) slots[v] = args[def.payload];
    if (def.kind == ValueKind::konst) slots[v] = static_cast<std::int32_t>(def.imm);
  }
  const auto slot_of = [&](ValueId v) {
    ISEX_ASSERT(v.valid() && v.index < num_values, "invalid value id");
    return v.index;
  };

  // The function's blocks laid out back to back; block b is
  // steps[block_begin[b], block_begin[b + 1]).
  std::vector<Step> steps;
  steps.reserve(fn.num_instrs());
  std::vector<std::uint32_t> block_begin;
  block_begin.reserve(fn.num_blocks() + 1);
  bool has_custom = false;
  for (std::size_t b = 0; b < fn.num_blocks(); ++b) {
    block_begin.push_back(static_cast<std::uint32_t>(steps.size()));
    for (InstrId id : fn.block(BlockId{static_cast<std::uint32_t>(b)}).instrs) {
      const Instruction& ins = fn.instr(id);
      Step step{ins.op, scratch_slot, zero_slot, zero_slot, zero_slot, &ins};
      if (ins.result.valid()) step.result = slot_of(ins.result);
      // Phi and custom operands are read through `ins`.
      if (ins.op != Opcode::phi && ins.op != Opcode::custom) {
        std::uint32_t* const operand_slots[] = {&step.a, &step.b, &step.c};
        for (std::size_t k = 0; k < ins.operands.size() && k < 3; ++k) {
          *operand_slots[k] = slot_of(ins.operands[k]);
        }
      }
      has_custom = has_custom || ins.op == Opcode::custom;
      steps.push_back(step);
    }
  }
  block_begin.push_back(static_cast<std::uint32_t>(steps.size()));

  std::array<std::uint64_t, opcode_count> sw_cycles{};
  for (int op = 0; op < opcode_count; ++op) {
    sw_cycles[static_cast<std::size_t>(op)] =
        static_cast<std::uint64_t>(latency_.sw_cycles(static_cast<Opcode>(op)));
  }
  const auto cost = [&sw_cycles](Opcode op) { return sw_cycles[static_cast<std::size_t>(op)]; };

  // Bundle results of custom instructions, keyed by the bundle's slot, and
  // scratch the phis and custom ops reuse from step to step.
  std::vector<std::vector<std::int32_t>> bundles(has_custom ? num_values : 0);
  std::vector<std::pair<std::uint32_t, std::int32_t>> phi_updates;
  std::vector<std::int32_t> custom_inputs;
  std::vector<std::int32_t> custom_scratch;

  ExecResult result;
  // Counted in locals, which the calls in the loop cannot touch; `result`
  // gets them when the run returns.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  BlockId block = fn.entry();
  BlockId prev_block{};  // where we came from, for phi resolution

  while (true) {
    if (profile != nullptr) profile->bump(block);
    ISEX_ASSERT(block.index < fn.num_blocks(), "invalid block id");
    const Step* step = steps.data() + block_begin[block.index];
    const Step* const end = steps.data() + block_begin[block.index + 1];

    // Phase 1: evaluate all phis against the incoming edge atomically.
    phi_updates.clear();
    for (; step != end && step->op == Opcode::phi; ++step) {
      const Instruction& ins = *step->ins;
      ISEX_CHECK(prev_block.valid(), "phi reached without a predecessor edge");
      bool found = false;
      for (std::size_t k = 0; k < ins.targets.size(); ++k) {
        if (ins.targets[k] == prev_block) {
          phi_updates.emplace_back(step->result, slots[slot_of(ins.operands[k])]);
          found = true;
          break;
        }
      }
      ISEX_CHECK(found, "phi has no incoming entry for the taken edge");
    }
    for (const auto& [slot, x] : phi_updates) slots[slot] = x;

    // Phase 2: straight-line execution.
    bool advanced = false;
    for (; step != end && !advanced; ++step) {
      if (step->op == Opcode::phi) continue;

      ISEX_CHECK(instructions < options_.max_steps, "interpreter step budget exhausted");
      ++instructions;

      // Pure opcodes (add .. zext16) branch once, inside eval_op.
      if (step->op >= Opcode::add && step->op <= Opcode::zext16) {
        slots[step->result] = eval_op(step->op, slots[step->a], slots[step->b], slots[step->c]);
        cycles += cost(step->op);
        continue;
      }
      switch (step->op) {
        case Opcode::load:
          slots[step->result] = memory_.load(static_cast<std::uint32_t>(slots[step->a]));
          break;
        case Opcode::store:
          memory_.store(static_cast<std::uint32_t>(slots[step->a]), slots[step->b]);
          break;
        case Opcode::custom: {
          const Instruction& ins = *step->ins;
          const CustomOp& cop = module_.custom_op(static_cast<int>(ins.imm));
          const auto op_index = static_cast<std::size_t>(ins.imm);
          if (result.custom_invocations.size() <= op_index) {
            result.custom_invocations.resize(op_index + 1, 0);
          }
          ++result.custom_invocations[op_index];
          custom_inputs.clear();
          for (ValueId v : ins.operands) custom_inputs.push_back(slots[slot_of(v)]);
          eval_custom_into(cop, custom_inputs, custom_scratch, bundles[step->result]);
          cycles += static_cast<std::uint64_t>(cop.latency_cycles);
          continue;
        }
        case Opcode::extract: {
          const ValueId bundle = step->ins->operands[0];
          const std::vector<std::int32_t>* outs =
              bundle.index < bundles.size() ? &bundles[bundle.index] : nullptr;
          const auto position = static_cast<std::size_t>(step->ins->imm);
          ISEX_CHECK(outs != nullptr && position < outs->size(),
                     "extract before custom execution");
          slots[step->result] = (*outs)[position];
          break;
        }
        case Opcode::br:
          prev_block = block;
          block = step->ins->targets[0];
          advanced = true;
          break;
        case Opcode::br_if:
          prev_block = block;
          block = slots[step->a] != 0 ? step->ins->targets[0] : step->ins->targets[1];
          advanced = true;
          break;
        case Opcode::ret:
          result.return_value = slots[step->a];
          result.instructions = instructions;
          result.cycles = cycles + cost(Opcode::ret);
          return result;
        default:
          slots[step->result] = eval_op(step->op, slots[step->a], slots[step->b], slots[step->c]);
          break;
      }
      cycles += cost(step->op);
    }
    ISEX_ASSERT(advanced, "block fell through without a terminator");
  }
}

}  // namespace isex
