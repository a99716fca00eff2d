#include "ir/function.hpp"

#include <algorithm>

namespace isex {

Function::Function(std::string name, int num_params)
    : name_(std::move(name)), num_params_(num_params) {
  ISEX_CHECK(num_params >= 0, "negative parameter count");
  for (int i = 0; i < num_params; ++i) {
    new_value(ValueKind::param, static_cast<std::uint32_t>(i));
  }
}

ValueId Function::param(int i) const {
  ISEX_CHECK(i >= 0 && i < num_params_, "parameter index out of range");
  return ValueId{static_cast<std::uint32_t>(i)};
}

ValueId Function::make_konst(std::int64_t literal) {
  const auto [it, inserted] = konst_cache_.try_emplace(literal);
  if (inserted) it->second = new_value(ValueKind::konst, 0, literal);
  return it->second;
}

std::int64_t Function::konst_value(ValueId v) const {
  const ValueDef& def = value(v);
  ISEX_CHECK(def.kind == ValueKind::konst, "value is not a constant");
  return def.imm;
}

InstrId Function::def_instr(ValueId v) const {
  const ValueDef& def = value(v);
  if (def.kind != ValueKind::instr) return InstrId{};
  return InstrId{def.payload};
}

InstrId Function::append_instr(BlockId b, Opcode op, std::vector<ValueId> operands,
                               std::vector<BlockId> targets, std::int64_t imm) {
  return insert_instr(b, block(b).instrs.size(), op, std::move(operands), std::move(targets), imm);
}

InstrId Function::insert_instr(BlockId b, std::size_t pos, Opcode op,
                               std::vector<ValueId> operands, std::vector<BlockId> targets,
                               std::int64_t imm) {
  BasicBlock& bb = block(b);
  ISEX_CHECK(pos <= bb.instrs.size(), "insert position out of range");
  ISEX_CHECK(op != Opcode::konst, "constants are values, not instructions");

  const InstrId id{static_cast<std::uint32_t>(instrs_.size())};
  Instruction ins;
  ins.op = op;
  ins.operands = std::move(operands);
  ins.targets = std::move(targets);
  ins.imm = imm;
  ins.parent = b;
  if (info(op).has_result) {
    ins.result = new_value(ValueKind::instr, id.index);
  }
  instrs_.push_back(std::move(ins));
  bb.instrs.insert(bb.instrs.begin() + static_cast<std::ptrdiff_t>(pos), id);
  return id;
}

BlockId Function::add_block(std::string name) {
  const BlockId id{static_cast<std::uint32_t>(blocks_.size())};
  blocks_.push_back(BasicBlock{std::move(name), {}});
  return id;
}

BasicBlock& Function::block(BlockId b) {
  ISEX_ASSERT(b.valid() && b.index < blocks_.size(), "invalid block id");
  return blocks_[b.index];
}

const BasicBlock& Function::block(BlockId b) const {
  ISEX_ASSERT(b.valid() && b.index < blocks_.size(), "invalid block id");
  return blocks_[b.index];
}

InstrId Function::terminator(BlockId b) const {
  const BasicBlock& bb = block(b);
  ISEX_CHECK(!bb.instrs.empty(), "block has no terminator");
  const InstrId last = bb.instrs.back();
  ISEX_CHECK(info(instr(last).op).is_terminator, "block does not end in a terminator");
  return last;
}

void Function::replace_all_uses(ValueId from, ValueId to) {
  ISEX_CHECK(from.valid() && to.valid(), "invalid value in replace_all_uses");
  for (Instruction& ins : instrs_) {
    if (ins.dead) continue;
    for (ValueId& op : ins.operands) {
      if (op == from) op = to;
    }
  }
}

void Function::purge_dead() {
  for (BasicBlock& bb : blocks_) {
    std::erase_if(bb.instrs, [&](InstrId i) { return instrs_[i.index].dead; });
  }
}

ValueId Function::new_value(ValueKind kind, std::uint32_t payload, std::int64_t imm) {
  const ValueId id{static_cast<std::uint32_t>(values_.size())};
  values_.push_back(ValueDef{kind, payload, imm});
  return id;
}

}  // namespace isex
