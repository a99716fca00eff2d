// Human-readable dumps of IR functions and modules, for debugging, examples
// and golden tests — and the *definition* of the textual IR surface that
// src/text/parser.hpp accepts: print_module emits a fully re-parseable,
// canonical form (dense value numbering, segment init data, custom-op
// micro-programs), so print(parse(print(m))) == print(m) byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.hpp"

namespace isex {

/// Canonical spellings of one function's values: "arg0" for parameters, the
/// bare literal ("42", "-7") for constants, and "vN" for instruction results
/// — where N is the value's *dense* result number (block order, program
/// order), not its raw arena index. Constants are therefore lexically
/// distinct from value names (a name never starts with a digit or '-'), and
/// the numbering is reconstructible from the text alone, which is what makes
/// the printed form re-parseable into a byte-identical reprint.
///
/// The numbering is computed once, in time linear in the function's size.
/// The object borrows `fn`, which must outlive it and stay unchanged while
/// it is in use.
class ValueNames {
 public:
  explicit ValueNames(const Function& fn);

  /// The longest spelling there is: an int64 literal such as
  /// "-9223372036854775808".
  static constexpr std::size_t kMaxNameLength = 20;

  /// A result whose instruction is dead or in no block list is spelled
  /// "v?<arena index>" (transient pass states; debug output only).
  std::string name(ValueId v) const;
  /// Writes name(v) to `out`, which has room for kMaxNameLength bytes, and
  /// returns the end of what it wrote. Allocates nothing.
  char* write(ValueId v, char* out) const;

 private:
  const Function& fn_;
  std::vector<std::uint32_t> dense_;  // by value index
};

/// Receives printed text in consecutive pieces.
using TextSink = std::function<void(std::string_view)>;

/// Prints the canonical textual form of the whole module (what parse_module
/// reads) to `sink`, a few KB per call, without building the whole text:
/// the content fingerprint hashes the pieces as they come.
void print_module(const Module& module, const TextSink& sink);

std::string function_to_string(const Module& module, const Function& fn);
/// The canonical textual form of the whole module in one string.
std::string module_to_string(const Module& module);

}  // namespace isex
