// Function-level IR: value definitions, instructions, basic blocks.
//
// Storage is arena-style: a Function owns flat vectors of values,
// instructions and blocks, all referenced by strong indices. Helper accessors
// keep call sites readable; structural invariants are enforced by
// ir/verifier.hpp rather than scattered through mutators, because the passes
// need to take the IR through transient invalid states.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/opcode.hpp"
#include "support/assert.hpp"
#include "support/ids.hpp"

namespace isex {

/// How a value comes into existence.
enum class ValueKind : std::uint8_t {
  param,  // function parameter; payload = parameter position
  instr,  // result of an instruction; payload = instruction index
  konst,  // integer literal; payload unused, literal in `imm`
};

struct ValueDef {
  ValueKind kind = ValueKind::konst;
  std::uint32_t payload = 0;
  std::int64_t imm = 0;  // literal for konst values
};

struct Instruction {
  Opcode op = Opcode::add;
  ValueId result;                 // invalid when the opcode has no result
  std::vector<ValueId> operands;  // data operands
  std::vector<BlockId> targets;   // br/br_if destinations; phi incoming blocks
  std::int64_t imm = 0;           // extract: output position; custom: CustomOp index
  BlockId parent;
  bool dead = false;  // tombstone left by passes; skipped everywhere
};

struct BasicBlock {
  std::string name;
  std::vector<InstrId> instrs;  // program order, terminator last
};

class Function {
 public:
  Function(std::string name, int num_params);

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // --- values ---------------------------------------------------------
  int num_params() const { return num_params_; }
  ValueId param(int i) const;
  ValueId make_konst(std::int64_t literal);  // deduplicated per function
  const ValueDef& value(ValueId v) const {
    ISEX_ASSERT(v.valid() && v.index < values_.size(), "invalid value id");
    return values_[v.index];
  }
  std::size_t num_values() const { return values_.size(); }
  bool is_konst(ValueId v) const { return value(v).kind == ValueKind::konst; }
  std::int64_t konst_value(ValueId v) const;
  /// Defining instruction of an instr-kind value (invalid id otherwise).
  InstrId def_instr(ValueId v) const;

  // --- instructions ---------------------------------------------------
  Instruction& instr(InstrId i) {
    ISEX_ASSERT(i.valid() && i.index < instrs_.size(), "invalid instruction id");
    return instrs_[i.index];
  }
  const Instruction& instr(InstrId i) const {
    ISEX_ASSERT(i.valid() && i.index < instrs_.size(), "invalid instruction id");
    return instrs_[i.index];
  }
  std::size_t num_instrs() const { return instrs_.size(); }
  /// Makes room for `instrs` more instructions and `values` more values, so
  /// a builder that knows its size appends without reallocating.
  void reserve(std::size_t instrs, std::size_t values) {
    instrs_.reserve(instrs_.size() + instrs);
    values_.reserve(values_.size() + values);
  }
  /// Creates an instruction (and its result value when the opcode has one)
  /// and appends it to `block`.
  InstrId append_instr(BlockId block, Opcode op, std::vector<ValueId> operands,
                       std::vector<BlockId> targets = {}, std::int64_t imm = 0);
  /// Same, but inserts before position `pos` in the block's instruction list.
  InstrId insert_instr(BlockId block, std::size_t pos, Opcode op, std::vector<ValueId> operands,
                       std::vector<BlockId> targets = {}, std::int64_t imm = 0);

  // --- blocks ---------------------------------------------------------
  BlockId add_block(std::string name);
  BasicBlock& block(BlockId b);
  const BasicBlock& block(BlockId b) const;
  std::size_t num_blocks() const { return blocks_.size(); }
  BlockId entry() const { return BlockId{0u}; }
  InstrId terminator(BlockId b) const;

  /// Rewrites every use of `from` to `to` across all instructions.
  void replace_all_uses(ValueId from, ValueId to);

  /// Drops tombstoned instructions from block lists (ids stay stable).
  void purge_dead();

  /// Replaces the whole block list (used by CFG compaction). The caller is
  /// responsible for remapping instruction parents and branch targets.
  void rebuild_blocks(std::vector<BasicBlock> blocks) { blocks_ = std::move(blocks); }

 private:
  ValueId new_value(ValueKind kind, std::uint32_t payload, std::int64_t imm = 0);

  std::string name_;
  int num_params_ = 0;
  std::vector<ValueDef> values_;
  std::vector<Instruction> instrs_;
  std::vector<BasicBlock> blocks_;
  std::unordered_map<std::int64_t, ValueId> konst_cache_;
};

}  // namespace isex
