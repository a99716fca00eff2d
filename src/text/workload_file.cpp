#include "text/workload_file.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "ir/printer.hpp"
#include "text/parser.hpp"
#include "workloads/util.hpp"

namespace isex {

namespace {

/// Parsed header state; absent directives keep their defaults.
struct Header {
  std::string workload;
  std::string entry;
  std::vector<std::int32_t> args;
  bool has_outputs = false;
  std::string output_segment;  // empty = outputs none
  std::uint32_t output_count = 0;
};

/// Re-tags a single-line token location with the document line number.
SourceLoc doc_loc(const Token& t, int line) { return SourceLoc{line, t.loc.col}; }

[[noreturn]] void fail_at(const Token& t, int line, const std::string& expected) {
  throw ParseError(doc_loc(t, line), expected,
                   "expected " + expected + ", found " + describe_token(t));
}

/// Parses one header directive line (already known not to start the module).
void parse_directive(Header& header, const std::vector<Token>& tokens, int line) {
  std::size_t k = 0;
  const auto next = [&]() -> const Token& { return tokens[k]; };
  const auto take = [&]() -> const Token& { return tokens[k < tokens.size() - 1 ? k++ : k]; };
  const auto take_ident = [&](const char* expected) -> const Token& {
    if (next().kind != TokenKind::identifier) fail_at(next(), line, expected);
    return take();
  };
  const auto at_end = [&]() {
    return next().kind == TokenKind::eof || next().kind == TokenKind::newline;
  };
  const auto expect_end = [&]() {
    if (!at_end()) fail_at(next(), line, "end of line");
  };

  const Token& kind = take_ident("'workload', 'entry', 'args' or 'outputs'");
  if (kind.text == "workload") {
    if (!header.workload.empty()) {
      throw ParseError(doc_loc(kind, line), "", "duplicate 'workload' directive");
    }
    header.workload = take_ident("workload name").text;
    expect_end();
  } else if (kind.text == "entry") {
    if (!header.entry.empty()) {
      throw ParseError(doc_loc(kind, line), "", "duplicate 'entry' directive");
    }
    header.entry = take_ident("entry function name").text;
    expect_end();
  } else if (kind.text == "args") {
    if (next().kind != TokenKind::punct || next().text != "[") fail_at(next(), line, "'['");
    take();
    while (!(next().kind == TokenKind::punct && next().text == "]")) {
      if (!header.args.empty()) {
        if (next().kind != TokenKind::punct || next().text != ",") fail_at(next(), line, "','");
        take();
      }
      if (next().kind != TokenKind::number || next().is_float) {
        fail_at(next(), line, "integer argument");
      }
      header.args.push_back(static_cast<std::int32_t>(take().value));
    }
    take();  // ']'
    expect_end();
  } else if (kind.text == "outputs") {
    if (header.has_outputs) {
      throw ParseError(doc_loc(kind, line), "", "duplicate 'outputs' directive");
    }
    header.has_outputs = true;
    const Token& mode = take_ident("'segment' or 'none'");
    if (mode.text == "none") {
      expect_end();
    } else if (mode.text == "segment") {
      header.output_segment = take_ident("segment name").text;
      const Token& count = take_ident("word count (xN)");
      if (count.text.size() < 2 || count.text[0] != 'x' ||
          count.text.find_first_not_of("0123456789", 1) != std::string_view::npos) {
        fail_at(count, line, "word count (xN)");
      }
      std::int64_t words = 0;
      for (std::size_t i = 1; i < count.text.size(); ++i) {
        words = words * 10 + (count.text[i] - '0');
        if (words > 0x7fffffff) {
          throw ParseError(doc_loc(count, line), "",
                           "word count '" + std::string(count.text) + "' is out of range");
        }
      }
      header.output_count = static_cast<std::uint32_t>(words);
      expect_end();
    } else {
      fail_at(mode, line, "'segment' or 'none'");
    }
  } else {
    fail_at(kind, line, "'workload', 'entry', 'args', 'outputs' or 'module'");
  }
}

}  // namespace

std::string dump_workload(const Workload& workload) {
  std::ostringstream os;
  os << "workload " << workload.name() << "\n";
  os << "entry " << workload.entry_name() << "\n";
  if (!workload.args().empty()) {
    os << "args [";
    for (std::size_t i = 0; i < workload.args().size(); ++i) {
      os << (i == 0 ? "" : ", ") << workload.args()[i];
    }
    os << "]\n";
  }
  if (const auto* reader = workload.read_outputs().target<SegmentReader>()) {
    os << "outputs segment " << reader->segment << " x" << reader->count << "\n";
  } else if (workload.expected_outputs().empty()) {
    os << "outputs none\n";
  } else {
    throw Error("workload '" + workload.name() +
                "' reads outputs through an opaque functor; cannot serialize it");
  }
  os << module_to_string(workload.module());
  return os.str();
}

Workload load_workload_string(std::string_view text) {
  // Header lines are scanned one physical line at a time (each is tokenized
  // on its own) until the `module` keyword, which hands the rest of the
  // document to the IR parser with line numbers shifted back into document
  // coordinates.
  Header header;
  std::size_t offset = 0;
  int line = 1;
  int module_line = 0;
  std::size_t module_offset = std::string_view::npos;
  while (offset <= text.size()) {
    const std::size_t eol = text.find('\n', offset);
    const std::size_t len = (eol == std::string_view::npos ? text.size() : eol) - offset;
    const std::string_view line_text = text.substr(offset, len);
    std::vector<Token> tokens;
    try {
      tokens = tokenize(line_text);
    } catch (const ParseError& e) {
      throw ParseError(SourceLoc{line, e.col()}, e.expected(), e.message());
    }
    if (tokens.front().kind == TokenKind::identifier && tokens.front().text == "module") {
      module_line = line;
      module_offset = offset;
      break;
    }
    if (tokens.front().kind != TokenKind::eof) parse_directive(header, tokens, line);
    if (eol == std::string_view::npos) break;
    offset = eol + 1;
    ++line;
  }
  if (module_offset == std::string_view::npos) {
    throw ParseError(SourceLoc{line, 1}, "'module'", "document contains no module");
  }

  std::unique_ptr<Module> module;
  try {
    module = parse_module(text.substr(module_offset));
  } catch (const ParseError& e) {
    throw ParseError(SourceLoc{e.line() + module_line - 1, e.col()}, e.expected(),
                     e.message());
  }

  std::string name = header.workload.empty() ? module->name() : header.workload;
  std::string entry = header.entry;
  if (entry.empty()) {
    if (module->find_function(module->name()) != nullptr) {
      entry = module->name();
    } else if (module->functions().size() == 1) {
      entry = module->functions().front().name();
    } else {
      throw Error("workload '" + name +
                  "': no 'entry' directive and no function named '" + module->name() +
                  "' to default to");
    }
  }
  if (module->find_function(entry) == nullptr) {
    throw Error("workload '" + name + "': entry function '" + entry + "' not found");
  }
  if (static_cast<int>(header.args.size()) != module->find_function(entry)->num_params()) {
    throw Error("workload '" + name + "': entry '" + entry + "' takes " +
                std::to_string(module->find_function(entry)->num_params()) +
                " arguments, but the 'args' directive provides " +
                std::to_string(header.args.size()));
  }
  if (!header.output_segment.empty() &&
      module->find_segment(header.output_segment) == nullptr) {
    throw Error("workload '" + name + "': output segment '" + header.output_segment +
                "' not found");
  }

  Workload::OutputReader reader;
  if (header.output_segment.empty()) {
    reader = [](const Module&, const Memory&) { return std::vector<std::int32_t>{}; };
  } else {
    reader = SegmentReader{header.output_segment, header.output_count};
  }

  // Probe run: the loaded module's own behaviour becomes the reference the
  // rewrite verifier checks selections against. The interpreter's step bound
  // turns a non-terminating kernel into a clean Error instead of a hang.
  std::vector<std::int32_t> expected;
  {
    Memory mem(*module);
    Interpreter interp(*module, mem);
    interp.run(*module->find_function(entry), header.args);
    expected = reader(*module, mem);
  }

  // parse_module verified the module before the probe ran it.
  return Workload(std::move(name), std::move(module), std::move(entry), std::move(header.args),
                  std::move(reader), std::move(expected),
                  Workload::ModuleCheck::already_verified);
}

Workload load_workload_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open workload file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return load_workload_string(buf.str());
  } catch (const ParseError& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace isex
