#include "ir/printer.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstring>
#include <limits>

namespace isex {

namespace {

constexpr std::uint32_t kUnnumbered = std::numeric_limits<std::uint32_t>::max();

/// Collects printed text in a fixed buffer and hands it to the sink a
/// buffer at a time, so printing allocates nothing per token.
class TextWriter {
 public:
  explicit TextWriter(const TextSink& sink) : sink_(sink) {}

  /// Appends each part: text, a character or an integer in decimal.
  template <typename... Parts>
  void put(const Parts&... parts) {
    (put_one(parts), ...);
  }
  void put_name(const ValueNames& names, ValueId v) {
    used_ = static_cast<std::size_t>(names.write(v, room(ValueNames::kMaxNameLength)) - buf_);
  }
  void flush() {
    if (used_ > 0) sink_(std::string_view(buf_, used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 16384;
  static constexpr std::size_t kIntChars = 20;  // "-9223372036854775808"

  void put_one(std::string_view s) {
    if (s.size() > kChunk - used_) {
      flush();
      if (s.size() > kChunk) {
        sink_(s);
        return;
      }
    }
    std::memcpy(buf_ + used_, s.data(), s.size());
    used_ += s.size();
  }
  void put_one(char c) {
    if (used_ == kChunk) flush();
    buf_[used_++] = c;
  }
  template <std::integral Int>
  void put_one(Int v) {
    char* const at = room(kIntChars);
    used_ = static_cast<std::size_t>(std::to_chars(at, at + kIntChars, v).ptr - buf_);
  }
  char* room(std::size_t n) {
    if (kChunk - used_ < n) flush();
    return buf_ + used_;
  }

  const TextSink& sink_;
  std::size_t used_ = 0;
  char buf_[kChunk];
};

/// Shortest decimal form that parses back to exactly the same double — keeps
/// custom-op area annotations byte-stable through print -> parse -> print.
std::string_view shortest(double v, char (&buf)[64]) {
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string_view(buf, static_cast<std::size_t>(ptr - buf)) : "0";
}

// Operand-space names inside a custom-op micro-program are tN: t0..t(k-1)
// are the instruction's inputs, t(k+i) is micro i's result.
void print_custom_op(TextWriter& out, const CustomOp& op) {
  char area[64];
  out.put("  custom ", op.name, " inputs ", op.num_inputs, " latency ", op.latency_cycles,
          " area ", shortest(op.area_macs, area), " {\n");
  for (std::size_t i = 0; i < op.micros.size(); ++i) {
    const CustomOp::Micro& m = op.micros[i];
    out.put("    t", op.num_inputs + static_cast<int>(i), " = ", name_of(m.op));
    if (m.op == Opcode::konst) {
      out.put(' ', m.imm);
    } else {
      const char* sep = " t";
      for (const int operand : {m.a, m.b, m.c}) {
        if (operand < 0) continue;
        out.put(sep, operand);
        sep = ", t";
      }
      if (m.op == Opcode::load) {
        out.put(", rom ", m.imm);
      } else if (m.imm != 0) {
        out.put(", #", m.imm);
      }
    }
    out.put('\n');
  }
  out.put("    out");
  for (std::size_t i = 0; i < op.outputs.size(); ++i) out.put(i == 0 ? " t" : ", t", op.outputs[i]);
  out.put("\n  }\n");
}

void print_function(TextWriter& out, const Module& module, const Function& fn) {
  out.put("func ", fn.name(), '(');
  for (int i = 0; i < fn.num_params(); ++i) out.put(i == 0 ? "arg" : ", arg", i);
  out.put(") {\n");
  const ValueNames names(fn);
  for (std::size_t bi = 0; bi < fn.num_blocks(); ++bi) {
    const BasicBlock& bb = fn.block(BlockId{static_cast<std::uint32_t>(bi)});
    out.put(bb.name, ":  ; bb", bi, '\n');
    for (InstrId id : bb.instrs) {
      const Instruction& ins = fn.instr(id);
      if (ins.dead) continue;
      out.put("  ");
      if (ins.result.valid()) {
        out.put_name(names, ins.result);
        out.put(" = ");
      }
      out.put(name_of(ins.op));
      if (ins.op == Opcode::custom) {
        out.put('.', module.custom_op(static_cast<int>(ins.imm)).name);
      }
      const char* sep = " ";
      for (std::size_t k = 0; k < ins.operands.size(); ++k) {
        out.put(sep);
        out.put_name(names, ins.operands[k]);
        if (ins.op == Opcode::phi) out.put(" [", fn.block(ins.targets[k]).name, ']');
        sep = ", ";
      }
      for (std::size_t k = (ins.op == Opcode::phi ? ins.targets.size() : 0);
           k < ins.targets.size(); ++k) {
        out.put(sep, fn.block(ins.targets[k]).name);
        sep = ", ";
      }
      if (ins.op == Opcode::extract) out.put(", #", ins.imm);
      // ROM hint on a load: imm = 1 + read-only segment index. Dropping it
      // would silently change what the DFG extractor admits into cuts, so
      // the textual form carries it explicitly.
      if (ins.op == Opcode::load && ins.imm > 0) out.put(", rom ", ins.imm - 1);
      out.put('\n');
    }
  }
  out.put("}\n");
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

char* ValueNames::write(ValueId v, char* out) const {
  char* const end = out + kMaxNameLength;
  const auto copy = [out](std::string_view s) { return std::copy(s.begin(), s.end(), out); };
  const auto number = [end](char* at, auto n) { return std::to_chars(at, end, n).ptr; };
  if (!v.valid()) return copy("<none>");
  const ValueDef& def = fn_.value(v);
  switch (def.kind) {
    case ValueKind::param:
      return number(copy("arg"), def.payload);
    case ValueKind::konst:
      return number(out, def.imm);
    case ValueKind::instr:
      if (dense_[v.index] != kUnnumbered) return number(copy("v"), dense_[v.index]);
      return number(copy("v?"), v.index);  // detached instruction (debug only)
  }
  return copy("<bad>");
}

std::string ValueNames::name(ValueId v) const {
  char buf[kMaxNameLength];
  return std::string(buf, write(v, buf));
}

void print_module(const Module& module, const TextSink& sink) {
  TextWriter out(sink);
  out.put("module ", module.name(), '\n');
  for (const MemSegment& seg : module.segments()) {
    out.put("  segment ", seg.name, " @", seg.base, " x", seg.size_words);
    if (seg.read_only) out.put(" ro");
    for (std::size_t i = 0; i < seg.init.size(); ++i) out.put(i == 0 ? " init [" : ", ", seg.init[i]);
    out.put(seg.init.empty() ? "\n" : "]\n");
  }
  for (std::size_t i = 0; i < module.num_custom_ops(); ++i) {
    print_custom_op(out, module.custom_op(static_cast<int>(i)));
  }
  for (const Function& fn : module.functions()) print_function(out, module, fn);
  out.flush();
}

std::string function_to_string(const Module& module, const Function& fn) {
  std::string text;
  const TextSink append = [&text](std::string_view piece) { text += piece; };
  TextWriter out(append);
  print_function(out, module, fn);
  out.flush();
  return text;
}

std::string module_to_string(const Module& module) {
  std::string text;
  print_module(module, [&text](std::string_view piece) { text += piece; });
  return text;
}

}  // namespace isex
