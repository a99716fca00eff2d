#include "text/parser.hpp"

#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "ir/verifier.hpp"

namespace isex {

namespace {

/// Open-addressing map from names to ids, sized once for the number of
/// names it will hold and at most ~2/3 full, so probes stay short and the
/// table small. Names view the parsed text and are never empty.
class NameTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  explicit NameTable(std::size_t capacity) : slots_(std::bit_ceil(capacity + capacity / 2 + 2)) {}

  /// Adds `name` -> `id`; false, leaving the table as it was, when the name
  /// is already present.
  bool insert(std::string_view name, std::uint32_t id) {
    Slot& slot = probe(name);
    if (slot.data != nullptr) return false;
    slot = {name.data(), static_cast<std::uint32_t>(name.size()), id};
    return true;
  }
  std::uint32_t find(std::string_view name) const {
    const Slot& slot = const_cast<NameTable*>(this)->probe(name);
    return slot.data != nullptr ? slot.id : kAbsent;
  }

 private:
  struct Slot {
    const char* data = nullptr;  // null: empty
    std::uint32_t size = 0;
    std::uint32_t id = kAbsent;
  };

  /// The slot holding `name`, or the empty slot where it belongs.
  Slot& probe(std::string_view name) {
    std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
    for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.data == nullptr ||
          (slot.size == name.size() && std::string_view(slot.data, slot.size) == name)) {
        return slot;
      }
    }
  }

  std::vector<Slot> slots_;
};

std::optional<Opcode> opcode_from_name(std::string_view name) {
  static const NameTable table = [] {
    NameTable t(opcode_count);
    for (int i = 0; i < opcode_count; ++i) {
      t.insert(name_of(static_cast<Opcode>(i)), static_cast<std::uint32_t>(i));
    }
    return t;
  }();
  const std::uint32_t op = table.find(name);
  if (op == NameTable::kAbsent) return std::nullopt;
  return static_cast<Opcode>(op);
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
// (functions, blocks, segments, custom ops) are copied. Instructions,
// operands and branch targets go to three flat arrays (ParseArrays).

/// One unresolved operand of a parsed instruction: an integer literal, or a
/// reference to a parameter / named result (possibly defined later — phis
/// reference their latch values forward).
struct POperand {
  std::string_view name;  // empty for an integer literal
  std::int64_t literal = 0;
  SourceLoc loc;
};

/// A block name an instruction refers to (phi incoming / branch dest).
struct PTarget {
  std::string_view name;
  SourceLoc loc;
};

struct PInstr {
  std::string_view result;  // empty when the line binds no name
  Opcode op = Opcode::add;
  std::string_view custom_name;  // custom.NAME suffix
  std::uint32_t first_operand = 0;
  std::uint32_t num_operands = 0;
  std::uint32_t first_target = 0;
  std::uint32_t num_targets = 0;
  std::int64_t imm = 0;  // extract position / load ROM hint (1 + segment index)
  SourceLoc loc;         // of the result name when there is one, else of the opcode
};

struct PBlock {
  std::string_view label;
  SourceLoc loc;
  std::uint32_t first_instr = 0;
  std::uint32_t end_instr = 0;
};

struct PFunction {
  std::string_view name;
  std::vector<std::string_view> params;
  std::vector<PBlock> blocks;
  std::uint32_t first_instr = 0;  // the function's instructions in ParseArrays
  std::uint32_t end_instr = 0;
  std::size_t num_named_results = 0;
  std::size_t num_literals = 0;
  SourceLoc loc;
};

/// What a parse collects before it builds the module. Each thread keeps
/// one, which every parse clears: the arrays keep their capacity, so a
/// server parsing one large kernel after another neither regrows them nor
/// has its allocator hand their pages back and fault them in again.
struct ParseArrays {
  std::vector<PInstr> instrs;
  std::vector<POperand> operands;
  std::vector<PTarget> targets;

  void clear() {
    instrs.clear();
    operands.clear();
    targets.clear();
  }
};

/// A ROM hint on a load, checked once the whole segment table is known.
struct RomHint {
  std::int64_t segment;
  SourceLoc loc;
};

class Parser {
 public:
  Parser(std::string_view text, ParseArrays& arrays) : lexer_(text), arrays_(arrays) {
    arrays_.clear();
  }

  std::unique_ptr<Module> parse() {
    token_ = lexer_.next();
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

  /// See Lexer::check_rest().
  void check_rest() { lexer_.check_rest(); }

 private:
  // --- token cursor ---------------------------------------------------------
  const Token& peek() const { return token_; }
  /// True when the current token is an identifier directly followed by ':'.
  bool at_label() const {
    return token_.kind == TokenKind::identifier && lexer_.next_is_punct(':');
  }
  Token advance() {
    const Token t = token_;
    token_ = lexer_.next();
    return t;
  }
  void skip() { token_ = lexer_.next(); }
  [[noreturn]] void fail(std::string expected, const Token& found) const {
    throw ParseError(found.loc, expected,
                     "expected " + expected + ", found " + describe_token(found));
  }
  bool at_punct(char c) const {
    return token_.kind == TokenKind::punct && token_.text[0] == c;
  }
  bool at_keyword(std::string_view word) const {
    return token_.kind == TokenKind::identifier && token_.text == word;
  }
  Token expect_ident(const char* expected) {
    if (token_.kind != TokenKind::identifier) fail(expected, token_);
    return advance();
  }
  Token expect_keyword(const char* word) {
    if (!at_keyword(word)) fail("'" + std::string(word) + "'", token_);
    return advance();
  }
  void expect_punct(char c) {
    if (!at_punct(c)) fail("'" + std::string(1, c) + "'", token_);
    skip();
  }
  Token expect_int(const char* expected) {
    if (token_.kind != TokenKind::number || token_.is_float) fail(expected, token_);
    return advance();
  }
  Token expect_double(const char* expected) {
    if (token_.kind != TokenKind::number) fail(expected, token_);
    return advance();
  }
  /// Consumes the end of the current line (newline or end of input).
  void expect_line_end() {
    if (token_.kind == TokenKind::eof) return;
    if (token_.kind != TokenKind::newline) fail("end of line", token_);
    skip();
  }
  void skip_newlines() {
    while (token_.kind == TokenKind::newline) skip();
  }
  bool at_line_end() const {
    return token_.kind == TokenKind::newline || token_.kind == TokenKind::eof;
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
      skip();
      read_only = true;
    }
    std::vector<std::int32_t> init;
    if (at_keyword("init")) {
      skip();
      expect_punct('[');
      while (!at_punct(']')) {
        init.push_back(static_cast<std::int32_t>(expect_int("init word").value));
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
            skip();
            const Token seg = expect_int("ROM segment index");
            if (m.op != Opcode::load) {
              throw ParseError(seg.loc, "", "'rom' is only valid on load micros");
            }
            check_rom_segment(module, {seg.value, seg.loc});
            m.imm = seg.value;
            break;
          }
          if (at_punct('#')) {
            skip();
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

  void check_rom_segment(const Module& module, const RomHint& hint) {
    const auto index = static_cast<std::size_t>(hint.segment);
    if (hint.segment < 0 || index >= module.segments().size()) {
      throw ParseError(hint.loc, "",
                       "ROM segment index " + std::to_string(hint.segment) +
                           " is out of range (module has " +
                           std::to_string(module.segments().size()) + " segments)");
    }
    if (!module.segments()[index].read_only) {
      throw ParseError(hint.loc, "",
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

    pf.first_instr = static_cast<std::uint32_t>(arrays_.instrs.size());
    while (true) {
      skip_newlines();
      if (at_punct('}')) break;
      if (peek().kind == TokenKind::eof) fail("block label or '}'", peek());
      if (at_label()) {
        const Token label = advance();
        skip();  // ':'
        expect_line_end();
        PBlock block{label.text, label.loc, static_cast<std::uint32_t>(arrays_.instrs.size()), 0};
        parse_block_body(pf);
        block.end_instr = static_cast<std::uint32_t>(arrays_.instrs.size());
        pf.blocks.push_back(block);
        continue;
      }
      if (pf.blocks.empty()) fail("block label", peek());
      fail("block label or '}'", peek());  // unreachable for instr lines (parsed below)
    }
    pf.end_instr = static_cast<std::uint32_t>(arrays_.instrs.size());
    expect_punct('}');
    expect_line_end();
    if (pf.blocks.empty()) {
      throw ParseError(pf.loc, "", "function '" + std::string(pf.name) + "' has no blocks");
    }
    return pf;
  }

  void parse_block_body(PFunction& pf) {
    while (true) {
      skip_newlines();
      if (at_punct('}')) return;                  // function end
      if (peek().kind == TokenKind::eof) return;  // caller reports the missing '}'
      if (at_label()) return;                     // next block label
      parse_instr(pf);
    }
  }

  void parse_operand(PFunction& pf, PInstr& ins) {
    const Token& t = peek();
    if (t.kind == TokenKind::number) {
      if (t.is_float) fail("operand (integer literal or value name)", t);
      arrays_.operands.push_back({{}, t.value, t.loc});
      ++pf.num_literals;
    } else if (t.kind == TokenKind::identifier) {
      arrays_.operands.push_back({t.text, 0, t.loc});
    } else {
      fail("operand (integer literal or value name)", t);
    }
    ++ins.num_operands;
    skip();
  }

  void parse_target(PInstr& ins, const char* expected) {
    const Token dest = expect_ident(expected);
    arrays_.targets.push_back({dest.text, dest.loc});
    ++ins.num_targets;
  }

  void parse_instr(PFunction& pf) {
    PInstr ins;
    ins.first_operand = static_cast<std::uint32_t>(arrays_.operands.size());
    ins.first_target = static_cast<std::uint32_t>(arrays_.targets.size());
    Token first = expect_ident("instruction");
    ins.loc = first.loc;
    if (at_punct('=')) {
      skip();
      ins.result = first.text;
      first = expect_ident("opcode");
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
          if (ins.num_operands > 0) expect_punct(',');
          parse_operand(pf, ins);
          expect_punct('[');
          parse_target(ins, "incoming block name");
          expect_punct(']');
        }
        if (ins.num_operands == 0) {
          throw ParseError(ins.loc, "", "phi needs at least one incoming value");
        }
        break;
      case Opcode::br:
        parse_target(ins, "target block name");
        break;
      case Opcode::br_if:
        parse_operand(pf, ins);
        for (int k = 0; k < 2; ++k) {
          expect_punct(',');
          parse_target(ins, "target block name");
        }
        break;
      case Opcode::extract: {
        parse_operand(pf, ins);
        expect_punct(',');
        expect_punct('#');
        const Token position = expect_int("output position");
        if (position.value < 0) {
          throw ParseError(position.loc, "", "extract position must be >= 0");
        }
        ins.imm = position.value;
        break;
      }
      case Opcode::load:
        parse_operand(pf, ins);
        if (!at_line_end()) {
          expect_punct(',');
          expect_keyword("rom");
          const Token seg = expect_int("ROM segment index");
          ins.imm = seg.value + 1;  // 0 stays "no hint"
          rom_hints_.push_back({seg.value, seg.loc});
        }
        break;
      case Opcode::custom:
        while (!at_line_end()) {
          if (ins.num_operands > 0) expect_punct(',');
          parse_operand(pf, ins);
        }
        break;
      default: {
        const int expected = info(ins.op).operand_count;
        for (int k = 0; k < expected; ++k) {
          if (k > 0) expect_punct(',');
          parse_operand(pf, ins);
        }
        break;
      }
    }
    if (!ins.result.empty() && !info(ins.op).has_result) {
      throw ParseError(ins.loc, "",
                       std::string("opcode '") + name_of(ins.op) + "' produces no result");
    }
    expect_line_end();
    if (!ins.result.empty()) ++pf.num_named_results;
    arrays_.instrs.push_back(ins);
  }

  // --- materialization ------------------------------------------------------
  void materialize(Module& module, const PFunction& pf) {
    std::string fn_name(pf.name);
    if (module.find_function(fn_name) != nullptr) {
      throw ParseError(pf.loc, "", "duplicate function '" + fn_name + "'");
    }
    // ROM hints were collected per parse; validate against the now-complete
    // segment table (segments may lexically follow a function).
    for (const RomHint& hint : rom_hints_) check_rom_segment(module, hint);
    rom_hints_.clear();

    Function& fn = module.add_function(std::move(fn_name), static_cast<int>(pf.params.size()));
    const std::size_t num_instrs = pf.end_instr - pf.first_instr;
    fn.reserve(num_instrs, num_instrs + pf.num_literals);
    NameTable values(pf.params.size() + pf.num_named_results);
    for (std::size_t i = 0; i < pf.params.size(); ++i) {
      values.insert(pf.params[i], fn.param(static_cast<int>(i)).index);
    }

    NameTable blocks(pf.blocks.size());
    for (const PBlock& pb : pf.blocks) {
      if (!blocks.insert(pb.label, static_cast<std::uint32_t>(fn.num_blocks()))) {
        throw ParseError(pb.loc, "",
                         "duplicate block label '" + std::string(pb.label) +
                             "' (block names are branch targets and must be unique)");
      }
      fn.add_block(std::string(pb.label));
    }

    // Pass A: append every instruction (creating its result value) with its
    // operands left empty, so forward references — loop-carried phis — have
    // a definition to resolve against in pass B. Instructions get
    // consecutive ids in the order they were parsed.
    const auto first_id = static_cast<std::uint32_t>(fn.num_instrs());
    for (std::size_t bi = 0; bi < pf.blocks.size(); ++bi) {
      const PBlock& pb = pf.blocks[bi];
      const BlockId block{static_cast<std::uint32_t>(bi)};
      for (std::uint32_t k = pb.first_instr; k < pb.end_instr; ++k) {
        const PInstr& pi = arrays_.instrs[k];
        std::vector<BlockId> targets(pi.num_targets);
        for (std::uint32_t t = 0; t < pi.num_targets; ++t) {
          const PTarget& target = arrays_.targets[pi.first_target + t];
          const std::uint32_t id = blocks.find(target.name);
          if (id == NameTable::kAbsent) {
            throw ParseError(target.loc, "",
                             "unknown block '" + std::string(target.name) + "'");
          }
          targets[t] = BlockId{id};
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
        if (!pi.result.empty() && !values.insert(pi.result, fn.instr(id).result.index)) {
          throw ParseError(pi.loc, "",
                           "redefinition of value '" + std::string(pi.result) + "'");
        }
      }
    }

    // Pass B: resolve operands now every name is bound.
    for (std::uint32_t k = pf.first_instr; k < pf.end_instr; ++k) {
      const PInstr& pi = arrays_.instrs[k];
      std::vector<ValueId> operands(pi.num_operands);
      for (std::uint32_t o = 0; o < pi.num_operands; ++o) {
        const POperand& po = arrays_.operands[pi.first_operand + o];
        if (po.name.empty()) {
          operands[o] = fn.make_konst(po.literal);
          continue;
        }
        const std::uint32_t id = values.find(po.name);
        if (id == NameTable::kAbsent) {
          throw ParseError(po.loc, "", "use of undefined value '" + std::string(po.name) + "'");
        }
        operands[o] = ValueId{id};
      }
      fn.instr(InstrId{first_id + (k - pf.first_instr)}).operands = std::move(operands);
    }
  }

  Lexer lexer_;
  Token token_;  // the current token
  ParseArrays& arrays_;
  std::vector<RomHint> rom_hints_;
};

}  // namespace

std::unique_ptr<Module> parse_module(std::string_view text) {
  thread_local ParseArrays arrays;
  Parser parser(text, arrays);
  try {
    return parser.parse();
  } catch (...) {
    // A lexical error anywhere in the text outranks the one parsing hit.
    parser.check_rest();
    throw;
  }
}

}  // namespace isex
