// Recursive-descent parser for the textual isex IR.
//
// The grammar is exactly what ir/printer.cpp emits — the printer is the
// specification, and the two are locked together by a print -> parse ->
// print byte-idempotence property test over every registry workload.
// Sketch (newline-terminated lines, `;` comments, block names may contain
// dots):
//
//   module NAME
//     segment NAME @BASE xSIZE [ro] [init [N, N, ...]]
//     custom NAME inputs K latency L area A {
//       tI = OPCODE tA[, tB[, tC]] | konst N | load tA, rom S
//       out tI[, tJ ...]
//     }
//   func NAME(arg0, arg1, ...) {
//   BLOCK:
//     [NAME =] OPCODE[.CUSTOM] OPERANDS
//   }
//
// Operands are integer literals (constants), parameter names, or the names
// instruction results were bound to ('NAME = ...'); phi operands carry their
// incoming block as 'value [block]', branches name their target blocks, an
// extract carries ', #POS' and a ROM-hinted load ', rom SEGMENT_INDEX'.
// Names are free-form — the canonical printer renumbers results densely as
// v0, v1, ... — and forward references (loop-carried phis) are legal.
//
// Every failure, lexical through verifier, is a ParseError with 1-based
// line/column and the expected construct; arbitrary bytes never crash.
#pragma once

#include <memory>
#include <string_view>

#include "ir/module.hpp"
#include "text/lexer.hpp"

namespace isex {

/// Parses one textual module and verifies it (ir/verifier.hpp); the returned
/// module always satisfies the structural invariants the rest of the library
/// assumes, and needs no second verify (load_workload_string does none).
/// Throws ParseError on any malformed input. Tokens are lexed as the parse
/// needs them; a failing parse lexes the rest of the text first, so a bad
/// byte anywhere in it is the error reported, ahead of any syntax error.
std::unique_ptr<Module> parse_module(std::string_view text);

}  // namespace isex
