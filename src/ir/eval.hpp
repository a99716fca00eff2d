// Scalar evaluation of pure opcodes, shared by the interpreter, the constant
// folder and CustomOp (AFU) execution so all three agree bit-for-bit.
//
// Semantics: 32-bit two's-complement, wrapping add/sub/mul, shift amounts
// masked to 5 bits, comparisons yield 0/1. Division by zero and
// INT_MIN / -1 raise isex::Error (the interpreter treats them as traps).
#pragma once

#include <cstdint>
#include <limits>

#include "ir/opcode.hpp"
#include "support/assert.hpp"

namespace isex {

/// Evaluates a pure (non-memory, non-control) opcode over up to three
/// operands. Unused operands are ignored. Inline: the interpreter's step
/// loop dispatches on the opcode once, here.
inline std::int32_t eval_op(Opcode op, std::int32_t a, std::int32_t b = 0, std::int32_t c = 0) {
  const auto wrap = [](std::uint64_t x) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(x));
  };
  const std::uint32_t ua = static_cast<std::uint32_t>(a);
  const std::uint32_t ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case Opcode::add:
      return wrap(std::uint64_t{ua} + ub);
    case Opcode::sub:
      return wrap(std::uint64_t{ua} - ub);
    case Opcode::mul:
      return wrap(std::uint64_t{ua} * ub);
    case Opcode::div_s:
      ISEX_CHECK(b != 0, "signed division by zero");
      if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return a;
      return a / b;
    case Opcode::div_u:
      ISEX_CHECK(b != 0, "unsigned division by zero");
      return static_cast<std::int32_t>(ua / ub);
    case Opcode::rem_s:
      ISEX_CHECK(b != 0, "signed remainder by zero");
      if (a == std::numeric_limits<std::int32_t>::min() && b == -1) return 0;
      return a % b;
    case Opcode::rem_u:
      ISEX_CHECK(b != 0, "unsigned remainder by zero");
      return static_cast<std::int32_t>(ua % ub);
    case Opcode::and_:
      return static_cast<std::int32_t>(ua & ub);
    case Opcode::or_:
      return static_cast<std::int32_t>(ua | ub);
    case Opcode::xor_:
      return static_cast<std::int32_t>(ua ^ ub);
    case Opcode::not_:
      return static_cast<std::int32_t>(~ua);
    case Opcode::shl:
      return wrap(std::uint64_t{ua} << (ub & 31));
    case Opcode::shr_u:
      return static_cast<std::int32_t>(ua >> (ub & 31));
    case Opcode::shr_s:
      return a >> (ub & 31);
    case Opcode::eq:
      return a == b ? 1 : 0;
    case Opcode::ne:
      return a != b ? 1 : 0;
    case Opcode::lt_s:
      return a < b ? 1 : 0;
    case Opcode::le_s:
      return a <= b ? 1 : 0;
    case Opcode::lt_u:
      return ua < ub ? 1 : 0;
    case Opcode::le_u:
      return ua <= ub ? 1 : 0;
    case Opcode::select:
      return a != 0 ? b : c;
    case Opcode::sext8:
      return static_cast<std::int32_t>(static_cast<std::int8_t>(ua & 0xff));
    case Opcode::sext16:
      return static_cast<std::int32_t>(static_cast<std::int16_t>(ua & 0xffff));
    case Opcode::zext8:
      return static_cast<std::int32_t>(ua & 0xff);
    case Opcode::zext16:
      return static_cast<std::int32_t>(ua & 0xffff);
    default:
      ISEX_ASSERT(false, "eval_op on non-pure opcode");
  }
}

/// True when `op` can be evaluated by eval_op.
bool is_pure_evaluable(Opcode op);

}  // namespace isex
