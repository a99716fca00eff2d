// Lexer for the textual isex IR (the form ir/printer.cpp emits).
//
// The token stream is line-oriented: newlines are tokens, because the
// grammar terminates segment lines and instructions at end of line rather
// than with explicit punctuation. `;` starts a comment running to the end of
// the line. Every byte the lexer does not understand is a structured
// ParseError carrying the 1-based line/column — arbitrary input never
// crashes or scans out of bounds.
//
// The Lexer hands out one token at a time, so a parse holds no token
// array. A lexical error anywhere in a document outranks every other error
// in it: a parser that fails before the end calls check_rest(), which
// reports the first bad byte or literal past the failure, if there is one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace isex {

/// 1-based position inside the parsed text.
struct SourceLoc {
  int line = 1;
  int col = 1;
};

/// Structured syntax/semantics failure of the textual frontend. `expected`
/// names the token class or construct the parser wanted at `loc` (empty for
/// pure semantic errors, e.g. a verifier rejection); what() always embeds
/// the location as "line L:C: ...".
class ParseError : public Error {
 public:
  ParseError(SourceLoc loc, std::string expected, std::string message)
      : Error("line " + std::to_string(loc.line) + ":" + std::to_string(loc.col) + ": " +
              message),
        loc_(loc),
        expected_(std::move(expected)),
        message_(std::move(message)) {}

  SourceLoc loc() const { return loc_; }
  int line() const { return loc_.line; }
  int col() const { return loc_.col; }
  /// The token class / construct expected at loc() ("identifier", "'='",
  /// "opcode", ...); empty when the failure is not an expectation mismatch.
  const std::string& expected() const { return expected_; }
  /// The message without the "line L:C:" prefix what() carries — callers
  /// that embed the module in a larger file re-throw with shifted locations.
  const std::string& message() const { return message_; }

 private:
  SourceLoc loc_;
  std::string expected_;
  std::string message_;
};

enum class TokenKind : std::uint8_t {
  identifier,  // [A-Za-z_][A-Za-z0-9_.]*  (block names contain dots)
  number,      // decimal literal, optional leading '-', optional fraction/exponent
  punct,       // one of ( ) { } [ ] , = : @ #
  newline,     // end of a physical line
  eof,
};

/// A token's `text` views the lexed input: the input must outlive every
/// token made from it.
struct Token {
  TokenKind kind = TokenKind::eof;
  std::string_view text;   // identifier spelling / punct character / literal digits
  std::int64_t value = 0;  // integer payload (valid when !is_float)
  double fvalue = 0.0;     // numeric payload, always set for numbers
  bool is_float = false;   // literal carried a fraction or exponent
  SourceLoc loc;
};

/// Human-readable description of a token for diagnostics ("identifier 'br'",
/// "number 42", "'{'", "end of line", "end of input").
std::string describe_token(const Token& token);

/// On-demand tokenizer over one input, which must outlive it.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token; at the end of the input, an eof token every call.
  /// Throws ParseError on a byte outside the token alphabet or a literal
  /// out of range (integers must fit an int64).
  Token next();

  /// True when the next token is the punctuation `c`, without lexing it.
  bool next_is_punct(char c) const;

  /// Lexes the rest of the input and throws its first lexical error, if
  /// any. A parser calls this before reporting an error of its own, so the
  /// error reported for a document does not depend on where parsing stopped.
  void check_rest();

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
  int line_ = 1;
};

/// Every token of the input, ending with the eof token; throws what
/// Lexer::next() throws.
std::vector<Token> tokenize(std::string_view text);

}  // namespace isex
