// The printer's dense value numbering on IR states that print -> parse
// round trips never reach: dead instructions not yet purged, an instruction
// listed in two blocks, and a detached instruction. The numbering is
// computed once per function; the reference below is the original
// per-operand rescan, kept here as the oracle the fast numbering must match
// value for value and byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "ir/builder.hpp"
#include "ir/printer.hpp"

namespace isex {
namespace {

/// Reference: rescans every block list for each value asked about.
std::string reference_value_name(const Function& fn, ValueId v) {
  if (!v.valid()) return "<none>";
  const ValueDef& def = fn.value(v);
  switch (def.kind) {
    case ValueKind::param:
      return "arg" + std::to_string(def.payload);
    case ValueKind::konst:
      return std::to_string(def.imm);
    case ValueKind::instr: {
      std::uint32_t next = 0;
      for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
        for (InstrId id : fn.block(BlockId{bi}).instrs) {
          const Instruction& ins = fn.instr(id);
          if (ins.dead || !ins.result.valid()) continue;
          if (ins.result == v) return "v" + std::to_string(next);
          ++next;
        }
      }
      return "v?" + std::to_string(v.index);
    }
  }
  return "<bad>";
}

/// Reference print_function for the plain arithmetic/branch functions built
/// below (no phi, custom, extract or ROM load syntax).
std::string reference_function_text(const Function& fn) {
  std::ostringstream os;
  os << "func " << fn.name() << "(";
  for (int i = 0; i < fn.num_params(); ++i) os << (i ? ", " : "") << "arg" << i;
  os << ") {\n";
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    const BasicBlock& bb = fn.block(BlockId{bi});
    os << bb.name << ":  ; bb" << bi << "\n";
    for (InstrId id : bb.instrs) {
      const Instruction& ins = fn.instr(id);
      if (ins.dead) continue;
      os << "  ";
      if (ins.result.valid()) os << reference_value_name(fn, ins.result) << " = ";
      os << name_of(ins.op);
      const char* sep = " ";
      for (ValueId v : ins.operands) {
        os << sep << reference_value_name(fn, v);
        sep = ", ";
      }
      for (BlockId t : ins.targets) {
        os << sep << fn.block(t).name;
        sep = ", ";
      }
      os << "\n";
    }
  }
  os << "}\n";
  return os.str();
}

/// Every value id (and the invalid one) spells as the reference spells it,
/// and the printed function is byte-identical to the reference print.
void expect_matches_reference(const Module& m, const Function& fn) {
  const ValueNames names(fn);
  EXPECT_EQ(names.name(ValueId{}), reference_value_name(fn, ValueId{}));
  for (std::size_t i = 0; i < fn.num_values(); ++i) {
    EXPECT_EQ(names.name(ValueId{i}), reference_value_name(fn, ValueId{i})) << "value " << i;
  }
  EXPECT_EQ(function_to_string(m, fn), reference_function_text(fn));
}

TEST(PrinterNumbering, DeadInstructionsAreSkippedBeforePurge) {
  Module m("t");
  IrBuilder b(m, "f", 1);
  const ValueId a = b.add(b.param(0), b.konst(1));
  const ValueId doomed = b.mul(a, b.konst(2));
  const ValueId c = b.sub(a, doomed);
  b.ret(b.add(c, b.konst(3)));
  Function& fn = b.function();
  fn.instr(fn.def_instr(doomed)).dead = true;  // tombstoned, uses not yet rewritten

  expect_matches_reference(m, fn);
  const std::string text = function_to_string(m, fn);
  EXPECT_EQ(text.find("mul"), std::string::npos) << text;
  EXPECT_NE(text.find("v1 = sub v0, v?" + std::to_string(doomed.index)), std::string::npos)
      << text;
  EXPECT_NE(text.find("v2 = add v1, 3"), std::string::npos) << text;
}

TEST(PrinterNumbering, InstructionListedTwiceKeepsItsFirstNumber) {
  Module m("t");
  IrBuilder b(m, "f", 1);
  const BlockId next = b.new_block("next");
  const ValueId shared = b.add(b.param(0), b.konst(1));
  b.br(next);
  b.set_insert(next);
  const ValueId later = b.add(shared, b.konst(2));
  b.ret(later);
  Function& fn = b.function();
  // A pass moving `shared` into `next` has inserted it but not yet erased
  // the original listing: both listings print, with one name, and the
  // second listing still advances the count.
  fn.block(next).instrs.insert(fn.block(next).instrs.begin(), fn.def_instr(shared));

  expect_matches_reference(m, fn);
  const std::string text = function_to_string(m, fn);
  const std::string line = "  v0 = add arg0, 1\n";
  const std::size_t first = text.find(line);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_NE(text.find(line, first + 1), std::string::npos) << text;
  EXPECT_NE(text.find("v2 = add v0, 2"), std::string::npos) << text;
}

TEST(PrinterNumbering, DetachedInstructionIsSpelledByArenaIndex) {
  Module m("t");
  IrBuilder b(m, "f", 2);
  const BlockId tail = b.new_block("tail");
  const ValueId x = b.add(b.param(0), b.param(1));
  const ValueId y = b.mul(x, b.konst(5));
  b.br(tail);
  b.set_insert(tail);
  b.ret(b.sub(y, x));
  Function& fn = b.function();
  // Unlinked from every block list while its uses still point at it.
  std::vector<InstrId>& entry = fn.block(fn.entry()).instrs;
  entry.erase(std::find(entry.begin(), entry.end(), fn.def_instr(x)));

  expect_matches_reference(m, fn);
  const std::string text = function_to_string(m, fn);
  const std::string detached = "v?" + std::to_string(x.index);
  EXPECT_NE(text.find("v0 = mul " + detached + ", 5"), std::string::npos) << text;
  EXPECT_NE(text.find("v1 = sub v0, " + detached), std::string::npos) << text;
}

}  // namespace
}  // namespace isex
