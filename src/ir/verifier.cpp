#include "ir/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "ir/cfg.hpp"

namespace isex {

namespace {

[[noreturn]] void fail(const Function& fn, const std::string& what) {
  throw Error("verifier: function '" + fn.name() + "': " + what);
}

std::string describe(const Function& fn, InstrId id) {
  std::ostringstream os;
  const Instruction& ins = fn.instr(id);
  os << "instr #" << id.index << " (" << name_of(ins.op) << ") in block '"
     << fn.block(ins.parent).name << "'";
  return os.str();
}

}  // namespace

void verify_function(const Module& module, const Function& fn) {
  if (fn.num_blocks() == 0) fail(fn, "no blocks");

  // Block structure: non-empty, exactly one trailing terminator, phis lead.
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    const BlockId b{static_cast<std::uint32_t>(bi)};
    const BasicBlock& bb = fn.block(b);
    if (bb.instrs.empty()) fail(fn, "block '" + bb.name + "' is empty");
    bool seen_non_phi = false;
    for (std::size_t k = 0; k < bb.instrs.size(); ++k) {
      const InstrId id = bb.instrs[k];
      const Instruction& ins = fn.instr(id);
      if (ins.dead) fail(fn, "dead instruction in block list: " + describe(fn, id));
      if (ins.parent != b) fail(fn, "parent mismatch: " + describe(fn, id));
      const bool is_last = (k + 1 == bb.instrs.size());
      if (info(ins.op).is_terminator != is_last) {
        fail(fn, std::string(is_last ? "missing terminator at " : "terminator mid-block at ") +
                     describe(fn, id));
      }
      if (ins.op == Opcode::phi) {
        if (seen_non_phi) fail(fn, "phi after non-phi: " + describe(fn, id));
      } else {
        seen_non_phi = true;
      }
    }
  }

  const Cfg cfg(fn);

  // Instruction id -> position in the block being checked, for same-block
  // def-before-use checks; kNotHere for instructions of other blocks.
  constexpr std::size_t kNotHere = ~std::size_t{0};
  std::vector<std::size_t> pos(fn.num_instrs(), kNotHere);

  // Instruction-level checks.
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    const BlockId b{static_cast<std::uint32_t>(bi)};
    if (!cfg.is_reachable(b)) continue;
    const BasicBlock& bb = fn.block(b);
    for (std::size_t k = 0; k < bb.instrs.size(); ++k) pos[bb.instrs[k].index] = k;

    for (std::size_t k = 0; k < bb.instrs.size(); ++k) {
      const InstrId id = bb.instrs[k];
      const Instruction& ins = fn.instr(id);
      const OpcodeInfo& oi = info(ins.op);

      if (ins.op == Opcode::konst) fail(fn, "konst instruction in function body");
      if (oi.operand_count >= 0 && static_cast<int>(ins.operands.size()) != oi.operand_count) {
        fail(fn, "operand count mismatch at " + describe(fn, id));
      }
      if (oi.has_result != ins.result.valid()) {
        fail(fn, "result presence mismatch at " + describe(fn, id));
      }

      // Target lists.
      const std::size_t expected_targets =
          ins.op == Opcode::br ? 1 : (ins.op == Opcode::br_if ? 2 : 0);
      if (ins.op != Opcode::phi && ins.targets.size() != expected_targets) {
        fail(fn, "target count mismatch at " + describe(fn, id));
      }

      if (ins.op == Opcode::custom) {
        if (ins.imm < 0 || static_cast<std::size_t>(ins.imm) >= module.num_custom_ops()) {
          fail(fn, "custom op index out of range at " + describe(fn, id));
        }
        const CustomOp& cop = module.custom_op(static_cast<int>(ins.imm));
        if (static_cast<int>(ins.operands.size()) != cop.num_inputs) {
          fail(fn, "custom op arity mismatch at " + describe(fn, id));
        }
      }
      if (ins.op == Opcode::extract) {
        const InstrId src = fn.def_instr(ins.operands[0]);
        if (!src.valid() || fn.instr(src).op != Opcode::custom) {
          fail(fn, "extract of a non-custom value at " + describe(fn, id));
        }
        const CustomOp& cop = module.custom_op(static_cast<int>(fn.instr(src).imm));
        if (ins.imm < 0 || ins.imm >= cop.num_outputs()) {
          fail(fn, "extract index out of range at " + describe(fn, id));
        }
      }

      if (ins.op == Opcode::phi) {
        if (ins.operands.size() != ins.targets.size()) {
          fail(fn, "phi operand/incoming-block mismatch at " + describe(fn, id));
        }
        const auto& preds = cfg.predecessors(b);
        if (ins.operands.size() != preds.size()) {
          fail(fn, "phi incoming count != predecessor count at " + describe(fn, id));
        }
        for (BlockId in : ins.targets) {
          if (std::find(preds.begin(), preds.end(), in) == preds.end()) {
            fail(fn, "phi incoming block is not a predecessor at " + describe(fn, id));
          }
        }
        std::unordered_set<std::uint32_t> seen;
        for (BlockId in : ins.targets) {
          if (!seen.insert(in.index).second) {
            fail(fn, "duplicate phi incoming block at " + describe(fn, id));
          }
        }
      }

      // Def-dominates-use for every operand.
      for (std::size_t oi_idx = 0; oi_idx < ins.operands.size(); ++oi_idx) {
        const ValueId v = ins.operands[oi_idx];
        if (!v.valid() || v.index >= fn.num_values()) {
          fail(fn, "invalid operand at " + describe(fn, id));
        }
        const ValueDef& def = fn.value(v);
        if (def.kind != ValueKind::instr) continue;  // params/consts dominate everything
        const InstrId def_id{def.payload};
        const Instruction& def_ins = fn.instr(def_id);
        if (def_ins.dead) fail(fn, "use of dead value at " + describe(fn, id));
        const BlockId def_block = def_ins.parent;

        if (ins.op == Opcode::phi) {
          // Incoming value must be available at the end of the incoming block.
          const BlockId in_block = ins.targets[oi_idx];
          if (!cfg.dominates(def_block, in_block)) {
            fail(fn, "phi incoming value does not dominate its edge at " + describe(fn, id));
          }
          continue;
        }
        if (def_block == b) {
          if (pos[def_id.index] == kNotHere || pos[def_id.index] >= k) {
            fail(fn, "use before def at " + describe(fn, id));
          }
        } else if (!cfg.dominates(def_block, b)) {
          fail(fn, "def does not dominate use at " + describe(fn, id));
        }
      }
    }
    for (InstrId id : bb.instrs) pos[id.index] = kNotHere;
  }

  // Entry block must have no phis.
  for (InstrId id : fn.block(fn.entry()).instrs) {
    if (fn.instr(id).op == Opcode::phi) fail(fn, "phi in entry block");
  }
}

void verify_module(const Module& module) {
  for (const Function& fn : module.functions()) verify_function(module, fn);
}

}  // namespace isex
