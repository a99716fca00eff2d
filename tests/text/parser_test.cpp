// Grammar and diagnostics contract of the textual-IR parser: well-formed
// documents produce verified modules, and every malformed one produces a
// ParseError whose line/column points at the offending token and whose
// expected() names what the parser wanted — the properties tools build
// error messages on.
#include <gtest/gtest.h>

#include <limits>

#include "ir/verifier.hpp"
#include "text/parser.hpp"

namespace isex {
namespace {

constexpr const char* kMinimal =
    "module m\n"
    "\n"
    "func m(arg0) {\n"
    "entry:\n"
    "  v0 = add arg0, 1\n"
    "  ret v0\n"
    "}\n";

TEST(TextParser, ParsesAMinimalModule) {
  const std::unique_ptr<Module> module = parse_module(kMinimal);
  ASSERT_NE(module->find_function("m"), nullptr);
  const Function& fn = *module->find_function("m");
  EXPECT_EQ(fn.num_params(), 1);
  verify_module(*module);  // already verified by parse_module; cheap re-check
}

TEST(TextParser, CommentsAndBlankLinesAreIgnored)
{
  const std::unique_ptr<Module> module = parse_module(
      "; leading comment\n"
      "module m ; trailing comment\n"
      "\n"
      "func m() {\n"
      "entry: ; block comment\n"
      "  ret 0\n"
      "}\n");
  EXPECT_NE(module->find_function("m"), nullptr);
}

TEST(TextParser, ForwardReferencesResolveAcrossBlocks) {
  // A loop-carried phi names its update value before that value's line.
  const std::unique_ptr<Module> module = parse_module(
      "module loop\n"
      "\n"
      "func loop(arg0) {\n"
      "entry:\n"
      "  br body\n"
      "body:\n"
      "  i = phi 0 [entry], next [body]\n"
      "  next = add i, 1\n"
      "  done = lt_s next, arg0\n"
      "  br_if done, body, exit\n"
      "exit:\n"
      "  ret i\n"
      "}\n");
  EXPECT_EQ(module->find_function("loop")->num_blocks(), 3u);
}

struct ErrorCase {
  const char* label;
  const char* text;
  int line;
  const char* expected;  // nullptr: don't pin the expected() field
};

class TextParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(TextParserErrors, ReportsStructuredLocationAndExpectation) {
  const ErrorCase& c = GetParam();
  try {
    parse_module(c.text);
    FAIL() << c.label << ": parse unexpectedly succeeded";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), c.line) << c.label << ": " << e.what();
    EXPECT_GE(e.col(), 1) << c.label;
    if (c.expected != nullptr) {
      EXPECT_EQ(e.expected(), c.expected) << c.label << ": " << e.what();
    }
    // what() embeds the location so a bare catch still logs usably.
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, TextParserErrors,
    ::testing::Values(
        ErrorCase{"empty_input", "", 1, "'module'"},
        ErrorCase{"missing_module_keyword", "func f() {\n}\n", 1, "'module'"},
        ErrorCase{"unknown_byte", "module m\x01\n", 1, nullptr},
        ErrorCase{"unknown_opcode",
                  "module m\nfunc m() {\nentry:\n  v0 = frobnicate 1\n  ret v0\n}\n", 4,
                  "opcode"},
        ErrorCase{"konst_as_instruction",
                  "module m\nfunc m() {\nentry:\n  v0 = konst 4\n  ret v0\n}\n", 4,
                  nullptr},
        ErrorCase{"undefined_operand",
                  "module m\nfunc m() {\nentry:\n  v0 = add ghost, 1\n  ret v0\n}\n", 4,
                  nullptr},
        ErrorCase{"too_few_operands",
                  "module m\nfunc m() {\nentry:\n  v0 = add 1\n  ret v0\n}\n", 4, nullptr},
        ErrorCase{"result_on_void_op",
                  "module m\nfunc m(arg0) {\nentry:\n  v0 = store arg0, 1\n  ret 0\n}\n",
                  4, nullptr},
        ErrorCase{"duplicate_result_name",
                  "module m\nfunc m() {\nentry:\n  v0 = add 1, 2\n  v0 = add 3, 4\n"
                  "  ret v0\n}\n",
                  5, nullptr},
        ErrorCase{"duplicate_block_label",
                  "module m\nfunc m() {\nentry:\n  br entry\nentry:\n  ret 0\n}\n", 5,
                  nullptr},
        ErrorCase{"unknown_branch_target",
                  "module m\nfunc m() {\nentry:\n  br nowhere\n}\n", 4, nullptr},
        ErrorCase{"duplicate_function",
                  "module m\nfunc f() {\nentry:\n  ret 0\n}\nfunc f() {\nentry:\n"
                  "  ret 0\n}\n",
                  6, nullptr},
        ErrorCase{"rom_hint_out_of_range",
                  "module m\nsegment s @0 x4\nfunc m(arg0) {\nentry:\n"
                  "  v0 = load arg0, rom 7\n  ret v0\n}\n",
                  5, nullptr},
        ErrorCase{"rom_hint_on_writable_segment",
                  "module m\nsegment s @0 x4\nfunc m(arg0) {\nentry:\n"
                  "  v0 = load arg0, rom 0\n  ret v0\n}\n",
                  5, nullptr},
        ErrorCase{"segment_init_exceeds_size", "module m\nsegment s @0 x2 ro init [1, 2, 3]\n",
                  2, nullptr},
        ErrorCase{"truncated_function", "module m\nfunc m() {\nentry:\n  ret 0", 4,
                  nullptr},
        ErrorCase{"oversized_integer",
                  "module m\nfunc m() {\nentry:\n  v0 = add 99999999999999999999999, 1\n"
                  "  ret v0\n}\n",
                  4, nullptr},
        ErrorCase{"block_without_terminator",
                  "module m\nfunc m() {\nentry:\n  v0 = add 1, 2\n}\n", 1, nullptr}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) { return info.param.label; });

TEST(TextParser, VerifierFailuresSurfaceAsParseErrors) {
  // Structurally parseable, semantically broken: the module-level wrap-up
  // runs verify_module and reports its message as a ParseError rather than
  // letting the library Error escape.
  try {
    parse_module("module m\nfunc m() {\nentry:\n  v0 = add 1, 2\n}\n");
    FAIL() << "unterminated block unexpectedly verified";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("verif"), std::string::npos) << e.what();
  }
}

TEST(TextParser, CustomOpsRoundTripThroughTheGrammar) {
  const std::unique_ptr<Module> module = parse_module(
      "module m\n"
      "\n"
      "custom mac inputs 3 latency 2 area 1.5 {\n"
      "  t3 = mul t0, t1\n"
      "  t4 = add t3, t2\n"
      "  out t4\n"
      "}\n"
      "\n"
      "func m(arg0, arg1, arg2) {\n"
      "entry:\n"
      "  v0 = custom.mac arg0, arg1, arg2\n"
      "  ret v0\n"
      "}\n");
  ASSERT_EQ(module->num_custom_ops(), 1);
  EXPECT_EQ(module->custom_op(0).name, "mac");
  EXPECT_EQ(module->custom_op(0).num_inputs, 3);
}

TEST(TextParser, NonAsciiBytesAreOutsideTheTokenAlphabet) {
  // Where a name (line 4) or a number (line 2) is expected, a byte >= 0x80
  // is never a letter or digit, whatever the process locale.
  struct Case {
    const char* text;
    int line;
    int col;
    const char* byte;
  };
  for (const Case& c : {
           Case{"module m\nfunc m(arg0) {\nentry:\n  v0 = add \xc3\xa9, 1\n  ret v0\n}\n", 4, 12,
                "byte 0xc3"},
           Case{"module m\nsegment s @\xff" "0 x4\n", 2, 12, "byte 0xff"},
       }) {
    try {
      parse_module(c.text);
      FAIL() << "non-ASCII byte unexpectedly accepted: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), c.line) << e.what();
      EXPECT_EQ(e.col(), c.col) << e.what();
      EXPECT_EQ(e.expected(), "token") << e.what();
      EXPECT_EQ(e.message(), std::string("unexpected ") + c.byte + " outside the token alphabet");
    }
  }
}

TEST(TextParser, IntegerLiteralsCoverTheWholeInt64Range) {
  const std::unique_ptr<Module> module = parse_module(
      "module m\nfunc m(arg0) {\nentry:\n  v0 = add arg0, -9223372036854775808\n  ret v0\n}\n");
  const Function& fn = *module->find_function("m");
  const Instruction& add = fn.instr(fn.block(fn.entry()).instrs.front());
  EXPECT_EQ(fn.konst_value(add.operands[1]), std::numeric_limits<std::int64_t>::min());

  try {
    parse_module(
        "module m\nfunc m(arg0) {\nentry:\n  v0 = add arg0, 9223372036854775808\n  ret v0\n}\n");
    FAIL() << "2^63 unexpectedly fits an int64";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4) << e.what();
    EXPECT_EQ(e.col(), 18) << e.what();
    EXPECT_EQ(e.expected(), "integer literal") << e.what();
    EXPECT_EQ(e.message(),
              "integer literal '9223372036854775808' does not fit a 64-bit value");
  }
}

TEST(TextParser, CustomMicroNumberingMustBeDense) {
  try {
    parse_module(
        "module m\n"
        "custom bad inputs 1 latency 1 area 1 {\n"
        "  t5 = not t0\n"
        "  out t5\n"
        "}\n");
    FAIL() << "sparse micro numbering unexpectedly accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3) << e.what();
  }
}

}  // namespace
}  // namespace isex
