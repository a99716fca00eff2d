#include "text/lexer.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace isex {

namespace {

// Byte classes of the token alphabet. A table instead of <cctype>: the
// alphabet is ASCII whatever the locale, so every byte >= 0x80 is outside it.
enum ByteClass : std::uint8_t {
  kIdentStart = 1,
  kIdentChar = 2,
  kDigit = 4,
  kPunct = 8,
};

constexpr std::array<std::uint8_t, 256> kByteClasses = [] {
  std::array<std::uint8_t, 256> classes{};
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kIdentStart | kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kIdentStart | kIdentChar;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kIdentChar | kDigit;
  classes['_'] = kIdentStart | kIdentChar;
  classes['.'] = kIdentChar;
  for (const char c : {'(', ')', '{', '}', '[', ']', ',', '=', ':', '@', '#'}) {
    classes[static_cast<unsigned char>(c)] = kPunct;
  }
  return classes;
}();

bool in_class(char c, ByteClass cls) {
  return (kByteClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// Printable rendering of an unexpected byte for the error message.
std::string describe_byte(unsigned char c) {
  if (c >= 0x20 && c < 0x7f) return std::string("'") + static_cast<char>(c) + "'";
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02x", c);
  return std::string("byte ") + buf;
}

}  // namespace

std::string describe_token(const Token& token) {
  switch (token.kind) {
    case TokenKind::identifier:
      return "identifier '" + std::string(token.text) + "'";
    case TokenKind::number:
      return "number " + std::to_string(token.value);
    case TokenKind::punct:
      return "'" + std::string(token.text) + "'";
    case TokenKind::newline:
      return "end of line";
    case TokenKind::eof:
      return "end of input";
  }
  return "<bad token>";
}

Token Lexer::next() {
  const std::string_view text = text_;
  const std::size_t n = text.size();
  const auto digits_from = [&](std::size_t k) {
    while (k < n && in_class(text[k], kDigit)) ++k;
    return k;
  };

  // A throw leaves pos_ before the offending token, so check_rest() meets
  // the same error again.
  std::size_t i = pos_;
  while (i < n) {
    const char c = text[i];
    // No token spans a line, so a column is the offset into the current line.
    const SourceLoc at{line_, static_cast<int>(i - line_start_) + 1};
    if (c == '\n') {
      // Collapse is the parser's job; every physical line break is a token
      // so column/line reporting stays exact.
      pos_ = i + 1;
      ++line_;
      line_start_ = pos_;
      return {.kind = TokenKind::newline, .text = text.substr(i, 1), .loc = at};
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == ';') {  // comment to end of line
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (in_class(c, kIdentStart)) {
      std::size_t end = i + 1;
      while (end < n && in_class(text[end], kIdentChar)) ++end;
      pos_ = end;
      return {.kind = TokenKind::identifier, .text = text.substr(i, end - i), .loc = at};
    }
    if (in_class(c, kDigit) || (c == '-' && i + 1 < n && in_class(text[i + 1], kDigit))) {
      std::size_t end = digits_from(i + 1);
      bool is_float = false;
      // Optional fraction and exponent (custom-op area annotations).
      if (end + 1 < n && text[end] == '.' && in_class(text[end + 1], kDigit)) {
        is_float = true;
        end = digits_from(end + 2);
      }
      if (end < n && (text[end] == 'e' || text[end] == 'E')) {
        std::size_t e = end + 1;
        if (e < n && (text[e] == '+' || text[e] == '-')) ++e;
        if (e < n && in_class(text[e], kDigit)) {
          is_float = true;
          end = digits_from(e + 1);
        }
      }
      Token token{.kind = TokenKind::number,
                  .text = text.substr(i, end - i),
                  .is_float = is_float,
                  .loc = at};
      if (is_float) {
        // strtod needs a terminated copy; fractions only occur in area
        // annotations, so this stays off the per-instruction path.
        const std::string digits(token.text);
        char* parsed_end = nullptr;
        errno = 0;
        token.fvalue = std::strtod(digits.c_str(), &parsed_end);
        if (errno == ERANGE || parsed_end != digits.c_str() + digits.size()) {
          throw ParseError(at, "numeric literal",
                           "numeric literal '" + digits + "' is out of range");
        }
      } else {
        const char* const last = token.text.data() + token.text.size();
        const auto [parsed_end, ec] = std::from_chars(token.text.data(), last, token.value);
        if (ec != std::errc() || parsed_end != last) {
          throw ParseError(at, "integer literal",
                           "integer literal '" + std::string(token.text) +
                               "' does not fit a 64-bit value");
        }
        token.fvalue = static_cast<double>(token.value);
      }
      pos_ = end;
      return token;
    }
    if (in_class(c, kPunct)) {
      pos_ = i + 1;
      return {.kind = TokenKind::punct, .text = text.substr(i, 1), .loc = at};
    }
    throw ParseError(at, "token",
                     "unexpected " + describe_byte(static_cast<unsigned char>(c)) +
                         " outside the token alphabet");
  }
  pos_ = n;
  return {.kind = TokenKind::eof,
          .text = {},
          .loc = SourceLoc{line_, static_cast<int>(n - line_start_) + 1}};
}

bool Lexer::next_is_punct(char c) const {
  std::size_t i = pos_;
  while (i < text_.size() && (text_[i] == ' ' || text_[i] == '\t' || text_[i] == '\r')) ++i;
  return i < text_.size() && text_[i] == c;
}

void Lexer::check_rest() {
  while (next().kind != TokenKind::eof) {
  }
}

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> out;
  Lexer lexer(text);
  do {
    out.push_back(lexer.next());
  } while (out.back().kind != TokenKind::eof);
  return out;
}

}  // namespace isex
