#include "ir/printer.hpp"

#include <charconv>
#include <limits>
#include <sstream>

namespace isex {

namespace {

constexpr std::uint32_t kUnnumbered = std::numeric_limits<std::uint32_t>::max();

/// Shortest decimal form that parses back to exactly the same double — keeps
/// custom-op area annotations byte-stable through print -> parse -> print.
std::string double_to_string(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

/// Operand-space name inside a custom-op micro-program: t0..t(k-1) are the
/// instruction's inputs, t(k+i) is micro i's result.
std::string micro_operand(int index) { return "t" + std::to_string(index); }

void print_custom_op(std::ostream& os, const CustomOp& op) {
  os << "  custom " << op.name << " inputs " << op.num_inputs << " latency "
     << op.latency_cycles << " area " << double_to_string(op.area_macs) << " {\n";
  for (std::size_t i = 0; i < op.micros.size(); ++i) {
    const CustomOp::Micro& m = op.micros[i];
    os << "    " << micro_operand(op.num_inputs + static_cast<int>(i)) << " = "
       << name_of(m.op);
    if (m.op == Opcode::konst) {
      os << " " << m.imm;
    } else {
      bool first = true;
      for (const int operand : {m.a, m.b, m.c}) {
        if (operand < 0) continue;
        os << (first ? " " : ", ") << micro_operand(operand);
        first = false;
      }
      if (m.op == Opcode::load) {
        os << ", rom " << m.imm;
      } else if (m.imm != 0) {
        os << ", #" << m.imm;
      }
    }
    os << "\n";
  }
  os << "    out";
  for (std::size_t i = 0; i < op.outputs.size(); ++i) {
    os << (i == 0 ? " " : ", ") << micro_operand(op.outputs[i]);
  }
  os << "\n  }\n";
}

}  // namespace

ValueNames::ValueNames(const Function& fn) : fn_(fn), dense_(fn.num_values(), kUnnumbered) {
  // Every listing of a live result advances the count, but an instruction
  // listed twice keeps the number of its first listing.
  std::uint32_t next = 0;
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    for (InstrId id : fn.block(BlockId{static_cast<std::uint32_t>(bi)}).instrs) {
      const Instruction& ins = fn.instr(id);
      if (ins.dead || !ins.result.valid()) continue;
      std::uint32_t& dense = dense_[ins.result.index];
      if (dense == kUnnumbered) dense = next;
      ++next;
    }
  }
}

std::string ValueNames::name(ValueId v) const {
  if (!v.valid()) return "<none>";
  const ValueDef& def = fn_.value(v);
  switch (def.kind) {
    case ValueKind::param:
      return "arg" + std::to_string(def.payload);
    case ValueKind::konst:
      return std::to_string(def.imm);
    case ValueKind::instr:
      if (dense_[v.index] != kUnnumbered) return "v" + std::to_string(dense_[v.index]);
      return "v?" + std::to_string(v.index);  // detached instruction (debug only)
  }
  return "<bad>";
}

void print_function(std::ostream& os, const Module& module, const Function& fn) {
  os << "func " << fn.name() << "(";
  for (int i = 0; i < fn.num_params(); ++i) {
    if (i) os << ", ";
    os << "arg" << i;
  }
  os << ") {\n";
  const ValueNames names(fn);
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    const BlockId b{static_cast<std::uint32_t>(bi)};
    const BasicBlock& bb = fn.block(b);
    os << bb.name << ":  ; bb" << bi << "\n";
    for (InstrId id : bb.instrs) {
      const Instruction& ins = fn.instr(id);
      if (ins.dead) continue;
      os << "  ";
      if (ins.result.valid()) os << names.name(ins.result) << " = ";
      os << name_of(ins.op);
      if (ins.op == Opcode::custom) {
        os << "." << module.custom_op(static_cast<int>(ins.imm)).name;
      }
      bool first = true;
      for (std::size_t k = 0; k < ins.operands.size(); ++k) {
        os << (first ? " " : ", ") << names.name(ins.operands[k]);
        if (ins.op == Opcode::phi) os << " [" << fn.block(ins.targets[k]).name << "]";
        first = false;
      }
      for (std::size_t k = (ins.op == Opcode::phi ? ins.targets.size() : 0);
           k < ins.targets.size(); ++k) {
        os << (first ? " " : ", ") << fn.block(ins.targets[k]).name;
        first = false;
      }
      if (ins.op == Opcode::extract) os << ", #" << ins.imm;
      // ROM hint on a load: imm = 1 + read-only segment index. Dropping it
      // would silently change what the DFG extractor admits into cuts, so
      // the textual form carries it explicitly.
      if (ins.op == Opcode::load && ins.imm > 0) os << ", rom " << (ins.imm - 1);
      os << "\n";
    }
  }
  os << "}\n";
}

void print_module(std::ostream& os, const Module& module) {
  os << "module " << module.name() << "\n";
  for (const MemSegment& seg : module.segments()) {
    os << "  segment " << seg.name << " @" << seg.base << " x" << seg.size_words
       << (seg.read_only ? " ro" : "");
    if (!seg.init.empty()) {
      os << " init [";
      for (std::size_t i = 0; i < seg.init.size(); ++i) {
        os << (i == 0 ? "" : ", ") << seg.init[i];
      }
      os << "]";
    }
    os << "\n";
  }
  for (std::size_t i = 0; i < module.num_custom_ops(); ++i) {
    print_custom_op(os, module.custom_op(static_cast<int>(i)));
  }
  for (const Function& fn : module.functions()) {
    print_function(os, module, fn);
  }
}

std::string function_to_string(const Module& module, const Function& fn) {
  std::ostringstream os;
  print_function(os, module, fn);
  return os.str();
}

std::string module_to_string(const Module& module) {
  std::ostringstream os;
  print_module(os, module);
  return os.str();
}

}  // namespace isex
