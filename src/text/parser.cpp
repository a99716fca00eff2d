#include "text/parser.hpp"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/verifier.hpp"

namespace isex {

namespace {

std::optional<Opcode> opcode_from_name(std::string_view name) {
  for (int i = 0; i < opcode_count; ++i) {
    const Opcode op = static_cast<Opcode>(i);
    if (name == name_of(op)) return op;
  }
  return std::nullopt;
}

/// Bounded decimal parse of an all-digits suffix (tN names, xN sizes).
/// Returns -1 when the digits overflow `limit` — callers report the token.
std::int64_t parse_digits(std::string_view digits, std::int64_t limit) {
  std::int64_t v = 0;
  for (const char c : digits) {
    v = v * 10 + (c - '0');
    if (v > limit) return -1;
  }
  return v;
}

// The parsed-but-unresolved form below holds names as views into the
// parsed text, which outlives the parser; only names the Module stores
// (functions, blocks, segments, custom ops) are copied.

/// One unresolved operand of a parsed instruction: an integer literal, or a
/// reference to a parameter / named result (possibly defined later — phis
/// reference their latch values forward).
struct POperand {
  bool is_const = false;
  std::int64_t literal = 0;
  std::string_view name;
  SourceLoc loc;
};

struct PInstr {
  std::string_view result;  // empty when the line binds no name
  SourceLoc result_loc;
  Opcode op = Opcode::add;
  std::string_view custom_name;  // custom.NAME suffix
  std::vector<POperand> operands;
  std::vector<std::string_view> targets;  // block names (phi incoming / branch dests)
  std::vector<SourceLoc> target_locs;
  std::int64_t imm = 0;  // extract position / load ROM hint (1 + segment index)
  SourceLoc loc;
};

struct PBlock {
  std::string_view label;
  SourceLoc loc;
  std::vector<PInstr> instrs;
};

struct PFunction {
  std::string_view name;
  std::vector<std::string_view> params;
  std::vector<PBlock> blocks;
  SourceLoc loc;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : tokens_(tokenize(text)) {}

  std::unique_ptr<Module> parse() {
    skip_newlines();
    expect_keyword("module");
    auto module = std::make_unique<Module>(std::string(expect_ident("module name").text));
    expect_line_end();

    std::vector<PFunction> functions;
    while (true) {
      skip_newlines();
      const Token& t = peek();
      if (t.kind == TokenKind::eof) break;
      if (t.kind != TokenKind::identifier) {
        fail("'segment', 'custom' or 'func'", t);
      }
      if (t.text == "segment") {
        parse_segment(*module);
      } else if (t.text == "custom") {
        parse_custom_op(*module);
      } else if (t.text == "func") {
        functions.push_back(parse_function());
      } else {
        fail("'segment', 'custom' or 'func'", t);
      }
    }
    for (const PFunction& pf : functions) materialize(*module, pf);

    try {
      verify_module(*module);
    } catch (const ParseError&) {
      throw;
    } catch (const Error& e) {
      throw ParseError(SourceLoc{1, 1}, "",
                       std::string("module fails verification: ") + e.what());
    }
    return module;
  }

 private:
  // --- token cursor ---------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();  // back() is eof
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  [[noreturn]] void fail(std::string expected, const Token& found) const {
    throw ParseError(found.loc, expected,
                     "expected " + expected + ", found " + describe_token(found));
  }
  bool at_punct(char c) const {
    return peek().kind == TokenKind::punct && peek().text[0] == c;
  }
  bool at_keyword(const char* word) const {
    return peek().kind == TokenKind::identifier && peek().text == word;
  }
  Token expect_ident(const char* expected) {
    if (peek().kind != TokenKind::identifier) fail(expected, peek());
    return advance();
  }
  Token expect_keyword(const char* word) {
    if (!at_keyword(word)) fail("'" + std::string(word) + "'", peek());
    return advance();
  }
  Token expect_punct(char c) {
    if (!at_punct(c)) fail("'" + std::string(1, c) + "'", peek());
    return advance();
  }
  Token expect_int(const char* expected) {
    if (peek().kind != TokenKind::number || peek().is_float) fail(expected, peek());
    return advance();
  }
  Token expect_double(const char* expected) {
    if (peek().kind != TokenKind::number) fail(expected, peek());
    return advance();
  }
  /// Consumes the end of the current line (newline or end of input).
  void expect_line_end() {
    if (peek().kind == TokenKind::eof) return;
    if (peek().kind != TokenKind::newline) fail("end of line", peek());
    advance();
  }
  void skip_newlines() {
    while (peek().kind == TokenKind::newline) advance();
  }
  bool at_line_end() const {
    return peek().kind == TokenKind::newline || peek().kind == TokenKind::eof;
  }

  // --- module-level items ---------------------------------------------------
  void parse_segment(Module& module) {
    expect_keyword("segment");
    const Token name = expect_ident("segment name");
    std::string seg_name(name.text);
    if (module.find_segment(seg_name) != nullptr) {
      throw ParseError(name.loc, "", "duplicate segment '" + seg_name + "'");
    }
    expect_punct('@');
    const Token base = expect_int("base address");
    const Token size = expect_ident("segment size (xN)");
    if (size.text.size() < 2 || size.text[0] != 'x' ||
        size.text.find_first_not_of("0123456789", 1) != std::string_view::npos) {
      fail("segment size (xN)", size);
    }
    const std::int64_t words = parse_digits(size.text.substr(1), 0x7fffffff);
    if (words < 0) {
      throw ParseError(size.loc, "",
                       "segment size '" + std::string(size.text) + "' is out of range");
    }
    const auto size_words = static_cast<std::uint32_t>(words);
    bool read_only = false;
    if (at_keyword("ro")) {
      advance();
      read_only = true;
    }
    std::vector<std::int32_t> init;
    if (at_keyword("init")) {
      advance();
      expect_punct('[');
      while (!at_punct(']')) {
        const Token v = expect_int("init word");
        init.push_back(static_cast<std::int32_t>(v.value));
        if (!at_punct(']')) expect_punct(',');
      }
      expect_punct(']');
    }
    if (init.size() > size_words) {
      throw ParseError(name.loc, "",
                       "segment '" + seg_name + "' init data (" +
                           std::to_string(init.size()) + " words) exceeds its size x" +
                           std::to_string(size_words));
    }
    expect_line_end();
    const std::uint32_t assigned =
        module.add_segment(seg_name, size_words, std::move(init), read_only);
    if (assigned != static_cast<std::uint64_t>(base.value)) {
      throw ParseError(base.loc, "",
                       "segment '" + seg_name + "' declares base @" +
                           std::to_string(base.value) + " but sequential allocation assigns @" +
                           std::to_string(assigned));
    }
  }

  /// Operand-space index of a tN name inside a custom-op micro-program.
  int micro_index(const Token& t, int limit) {
    if (t.text.size() < 2 || t.text[0] != 't' ||
        t.text.find_first_not_of("0123456789", 1) != std::string_view::npos) {
      fail("micro operand (tN)", t);
    }
    const std::int64_t parsed = parse_digits(t.text.substr(1), limit);
    const int index = static_cast<int>(parsed);
    if (parsed < 0 || index >= limit) {
      throw ParseError(t.loc, "",
                       "micro operand " + std::string(t.text) +
                           " references a value defined later (only t0..t" +
                           std::to_string(limit - 1) + " are in scope)");
    }
    return index;
  }

  void parse_custom_op(Module& module) {
    expect_keyword("custom");
    CustomOp op;
    const Token name = expect_ident("custom-op name");
    op.name = std::string(name.text);
    for (std::size_t i = 0; i < module.num_custom_ops(); ++i) {
      if (module.custom_op(static_cast<int>(i)).name == op.name) {
        throw ParseError(name.loc, "", "duplicate custom op '" + op.name + "'");
      }
    }
    expect_keyword("inputs");
    op.num_inputs = static_cast<int>(expect_int("input count").value);
    if (op.num_inputs < 0) {
      throw ParseError(name.loc, "", "custom op input count must be >= 0");
    }
    expect_keyword("latency");
    op.latency_cycles = static_cast<int>(expect_int("latency cycles").value);
    expect_keyword("area");
    op.area_macs = expect_double("area (MACs)").fvalue;
    expect_punct('{');
    expect_line_end();

    while (true) {
      skip_newlines();
      if (at_keyword("out")) break;
      if (at_punct('}')) {
        fail("'out' line before '}'", peek());
      }
      const Token result = expect_ident("micro result (tN)");
      const int defined = op.num_inputs + static_cast<int>(op.micros.size());
      // The result name must be the next operand-space slot: the program is a
      // dense, topologically ordered array.
      if (result.text != "t" + std::to_string(defined)) {
        throw ParseError(result.loc, "t" + std::to_string(defined),
                         "micro results are numbered densely; expected t" +
                             std::to_string(defined) + ", found " + std::string(result.text));
      }
      expect_punct('=');
      const Token op_tok = expect_ident("opcode");
      const std::optional<Opcode> micro_op = opcode_from_name(op_tok.text);
      if (!micro_op.has_value()) fail("opcode", op_tok);
      CustomOp::Micro m;
      m.op = *micro_op;
      if (m.op == Opcode::konst) {
        m.imm = expect_int("konst literal").value;
      } else {
        int count = 0;
        while (!at_line_end()) {
          if (count > 0) expect_punct(',');
          if (at_keyword("rom")) {
            advance();
            const Token seg = expect_int("ROM segment index");
            if (m.op != Opcode::load) {
              throw ParseError(seg.loc, "", "'rom' is only valid on load micros");
            }
            check_rom_segment(module, seg);
            m.imm = seg.value;
            break;
          }
          if (at_punct('#')) {
            advance();
            m.imm = expect_int("immediate").value;
            break;
          }
          const Token operand = expect_ident("micro operand (tN)");
          const int index = micro_index(operand, defined);
          if (count == 0) {
            m.a = index;
          } else if (count == 1) {
            m.b = index;
          } else if (count == 2) {
            m.c = index;
          } else {
            throw ParseError(operand.loc, "", "micro takes at most three operands");
          }
          ++count;
        }
      }
      expect_line_end();
      op.micros.push_back(m);
    }
    expect_keyword("out");
    const int space = op.num_inputs + static_cast<int>(op.micros.size());
    while (!at_line_end()) {
      if (!op.outputs.empty()) expect_punct(',');
      const Token out = expect_ident("output operand (tN)");
      op.outputs.push_back(micro_index(out, space));
    }
    expect_line_end();
    skip_newlines();
    expect_punct('}');
    expect_line_end();
    module.add_custom_op(std::move(op));
  }

  void check_rom_segment(const Module& module, const Token& seg) {
    const auto index = static_cast<std::size_t>(seg.value);
    if (seg.value < 0 || index >= module.segments().size()) {
      throw ParseError(seg.loc, "",
                       "ROM segment index " + std::to_string(seg.value) +
                           " is out of range (module has " +
                           std::to_string(module.segments().size()) + " segments)");
    }
    if (!module.segments()[index].read_only) {
      throw ParseError(seg.loc, "",
                       "ROM hint references segment '" + module.segments()[index].name +
                           "', which is not read-only");
    }
  }

  // --- functions ------------------------------------------------------------
  PFunction parse_function() {
    PFunction pf;
    pf.loc = expect_keyword("func").loc;
    pf.name = expect_ident("function name").text;
    expect_punct('(');
    while (!at_punct(')')) {
      if (!pf.params.empty()) expect_punct(',');
      const Token p = expect_ident("parameter name");
      for (const std::string_view existing : pf.params) {
        if (existing == p.text) {
          throw ParseError(p.loc, "", "duplicate parameter '" + std::string(p.text) + "'");
        }
      }
      pf.params.push_back(p.text);
    }
    expect_punct(')');
    expect_punct('{');
    expect_line_end();

    while (true) {
      skip_newlines();
      if (at_punct('}')) break;
      if (peek().kind == TokenKind::eof) fail("block label or '}'", peek());
      // A block label is an identifier directly followed by ':'.
      if (peek().kind == TokenKind::identifier && peek(1).kind == TokenKind::punct &&
          peek(1).text[0] == ':') {
        PBlock block;
        const Token label = advance();
        block.label = label.text;
        block.loc = label.loc;
        advance();  // ':'
        expect_line_end();
        parse_block_body(block);
        pf.blocks.push_back(std::move(block));
        continue;
      }
      if (pf.blocks.empty()) fail("block label", peek());
      fail("block label or '}'", peek());  // unreachable for instr lines (parsed below)
    }
    expect_punct('}');
    expect_line_end();
    if (pf.blocks.empty()) {
      throw ParseError(pf.loc, "", "function '" + std::string(pf.name) + "' has no blocks");
    }
    return pf;
  }

  void parse_block_body(PBlock& block) {
    while (true) {
      skip_newlines();
      if (at_punct('}')) return;  // function end
      if (peek().kind == TokenKind::eof) return;  // caller reports the missing '}'
      if (peek().kind == TokenKind::identifier && peek(1).kind == TokenKind::punct &&
          peek(1).text[0] == ':') {
        return;  // next block label
      }
      block.instrs.push_back(parse_instr());
    }
  }

  POperand parse_operand() {
    POperand operand;
    const Token& t = peek();
    if (t.kind == TokenKind::number) {
      if (t.is_float) fail("operand (integer literal or value name)", t);
      operand.is_const = true;
      operand.literal = t.value;
      operand.loc = t.loc;
      advance();
      return operand;
    }
    if (t.kind == TokenKind::identifier) {
      operand.name = t.text;
      operand.loc = t.loc;
      advance();
      return operand;
    }
    fail("operand (integer literal or value name)", t);
  }

  PInstr parse_instr() {
    PInstr ins;
    Token first = expect_ident("instruction");
    ins.loc = first.loc;
    if (at_punct('=')) {
      advance();
      ins.result = first.text;
      ins.result_loc = first.loc;
      first = expect_ident("opcode");
      ins.loc = ins.result_loc;
    }
    const std::string_view op_name = first.text;
    if (op_name.starts_with("custom.")) {
      ins.op = Opcode::custom;
      ins.custom_name = op_name.substr(7);
      if (ins.custom_name.empty()) {
        throw ParseError(first.loc, "custom-op name", "custom needs a '.NAME' suffix");
      }
    } else {
      const std::optional<Opcode> op = opcode_from_name(op_name);
      if (!op.has_value()) fail("opcode", first);
      ins.op = *op;
      if (ins.op == Opcode::konst) {
        throw ParseError(first.loc, "",
                         "konst is not an instruction — write the literal directly as "
                         "an operand");
      }
      if (ins.op == Opcode::custom) {
        throw ParseError(first.loc, "custom-op name", "custom needs a '.NAME' suffix");
      }
    }

    switch (ins.op) {
      case Opcode::phi:
        while (!at_line_end()) {
          if (!ins.operands.empty()) expect_punct(',');
          ins.operands.push_back(parse_operand());
          expect_punct('[');
          const Token from = expect_ident("incoming block name");
          ins.targets.push_back(from.text);
          ins.target_locs.push_back(from.loc);
          expect_punct(']');
        }
        if (ins.operands.empty()) {
          throw ParseError(ins.loc, "", "phi needs at least one incoming value");
        }
        break;
      case Opcode::br: {
        const Token dest = expect_ident("target block name");
        ins.targets.push_back(dest.text);
        ins.target_locs.push_back(dest.loc);
        break;
      }
      case Opcode::br_if: {
        ins.operands.push_back(parse_operand());
        for (int k = 0; k < 2; ++k) {
          expect_punct(',');
          const Token dest = expect_ident("target block name");
          ins.targets.push_back(dest.text);
          ins.target_locs.push_back(dest.loc);
        }
        break;
      }
      case Opcode::extract: {
        ins.operands.push_back(parse_operand());
        expect_punct(',');
        expect_punct('#');
        const Token position = expect_int("output position");
        if (position.value < 0) {
          throw ParseError(position.loc, "", "extract position must be >= 0");
        }
        ins.imm = position.value;
        break;
      }
      case Opcode::load: {
        ins.operands.push_back(parse_operand());
        if (!at_line_end()) {
          expect_punct(',');
          expect_keyword("rom");
          const Token seg = expect_int("ROM segment index");
          ins.imm = seg.value + 1;  // 0 stays "no hint"
          rom_hints_.push_back({seg, ins.loc});
        }
        break;
      }
      case Opcode::custom:
        while (!at_line_end()) {
          if (!ins.operands.empty()) expect_punct(',');
          ins.operands.push_back(parse_operand());
        }
        break;
      default: {
        const int expected = info(ins.op).operand_count;
        for (int k = 0; k < expected; ++k) {
          if (k > 0) expect_punct(',');
          ins.operands.push_back(parse_operand());
        }
        break;
      }
    }
    if (!ins.result.empty() && !info(ins.op).has_result) {
      throw ParseError(ins.result_loc, "",
                       std::string("opcode '") + name_of(ins.op) + "' produces no result");
    }
    expect_line_end();
    return ins;
  }

  // --- materialization ------------------------------------------------------
  void materialize(Module& module, const PFunction& pf) {
    std::string fn_name(pf.name);
    if (module.find_function(fn_name) != nullptr) {
      throw ParseError(pf.loc, "", "duplicate function '" + fn_name + "'");
    }
    // ROM hints were collected per parse; validate against the now-complete
    // segment table (segments may lexically follow a function).
    for (const auto& [seg, loc] : rom_hints_) check_rom_segment(module, seg);
    rom_hints_.clear();

    Function& fn = module.add_function(std::move(fn_name), static_cast<int>(pf.params.size()));
    std::unordered_map<std::string_view, ValueId> values;
    for (std::size_t i = 0; i < pf.params.size(); ++i) {
      values.emplace(pf.params[i], fn.param(static_cast<int>(i)));
    }

    std::unordered_map<std::string_view, BlockId> blocks;
    for (const PBlock& pb : pf.blocks) {
      if (!blocks.emplace(pb.label, BlockId{}).second) {
        throw ParseError(pb.loc, "",
                         "duplicate block label '" + std::string(pb.label) +
                             "' (block names are branch targets and must be unique)");
      }
      blocks[pb.label] = fn.add_block(std::string(pb.label));
    }

    // Pass A: append every instruction (creating its result value) with its
    // operands left empty, so forward references — loop-carried phis — have
    // a definition to resolve against in pass B.
    std::vector<std::vector<InstrId>> appended(pf.blocks.size());
    for (std::size_t bi = 0; bi < pf.blocks.size(); ++bi) {
      const PBlock& pb = pf.blocks[bi];
      const BlockId block = blocks[pb.label];
      for (const PInstr& pi : pb.instrs) {
        std::vector<BlockId> targets;
        targets.reserve(pi.targets.size());
        for (std::size_t t = 0; t < pi.targets.size(); ++t) {
          const auto it = blocks.find(pi.targets[t]);
          if (it == blocks.end()) {
            throw ParseError(pi.target_locs[t], "",
                             "unknown block '" + std::string(pi.targets[t]) + "'");
          }
          targets.push_back(it->second);
        }
        std::int64_t imm = pi.imm;
        if (pi.op == Opcode::custom) {
          imm = -1;
          for (std::size_t c = 0; c < module.num_custom_ops(); ++c) {
            if (module.custom_op(static_cast<int>(c)).name == pi.custom_name) {
              imm = static_cast<std::int64_t>(c);
              break;
            }
          }
          if (imm < 0) {
            throw ParseError(pi.loc, "",
                             "unknown custom op '" + std::string(pi.custom_name) + "'");
          }
        }
        const InstrId id = fn.append_instr(block, pi.op, {}, std::move(targets), imm);
        appended[bi].push_back(id);
        if (!pi.result.empty()) {
          const ValueId result = fn.instr(id).result;
          if (!values.emplace(pi.result, result).second) {
            throw ParseError(pi.result_loc, "",
                             "redefinition of value '" + std::string(pi.result) + "'");
          }
        }
      }
    }

    // Pass B: resolve operands now every name is bound.
    for (std::size_t bi = 0; bi < pf.blocks.size(); ++bi) {
      const PBlock& pb = pf.blocks[bi];
      for (std::size_t k = 0; k < pb.instrs.size(); ++k) {
        const PInstr& pi = pb.instrs[k];
        std::vector<ValueId> operands;
        operands.reserve(pi.operands.size());
        for (const POperand& po : pi.operands) {
          if (po.is_const) {
            operands.push_back(fn.make_konst(po.literal));
            continue;
          }
          const auto it = values.find(po.name);
          if (it == values.end()) {
            throw ParseError(po.loc, "",
                             "use of undefined value '" + std::string(po.name) + "'");
          }
          operands.push_back(it->second);
        }
        fn.instr(appended[bi][k]).operands = std::move(operands);
      }
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<std::pair<Token, SourceLoc>> rom_hints_;
};

}  // namespace

std::unique_ptr<Module> parse_module(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace isex
