#include "ir/eval.hpp"

#include "support/assert.hpp"

namespace isex {

bool is_pure_evaluable(Opcode op) {
  switch (op) {
    case Opcode::add:
    case Opcode::sub:
    case Opcode::mul:
    case Opcode::div_s:
    case Opcode::div_u:
    case Opcode::rem_s:
    case Opcode::rem_u:
    case Opcode::and_:
    case Opcode::or_:
    case Opcode::xor_:
    case Opcode::not_:
    case Opcode::shl:
    case Opcode::shr_u:
    case Opcode::shr_s:
    case Opcode::eq:
    case Opcode::ne:
    case Opcode::lt_s:
    case Opcode::le_s:
    case Opcode::lt_u:
    case Opcode::le_u:
    case Opcode::select:
    case Opcode::sext8:
    case Opcode::sext16:
    case Opcode::zext8:
    case Opcode::zext16:
      return true;
    default:
      return false;
  }
}

}  // namespace isex
