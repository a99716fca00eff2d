// Robustness harness for the textual frontend: seeded corruptions of real
// documents — truncations, byte flips, line splices — must always yield
// either a successful parse or a structured ParseError. Any other escape
// (a crash, an assertion, a non-ParseError exception from the parsing
// layer) is the bug class this test exists to catch. The same property is
// fuzzed continuously by fuzz/parse_module_fuzzer.cpp when built with
// ISEX_BUILD_FUZZERS.
//
// Which error a corrupted document earns is pinned too: every seed's
// outcome (the reprint's hash, or the ParseError's line, column, expected
// construct and message) folds into one digest per base document. A bad
// byte anywhere in the text is reported ahead of an earlier syntax error,
// and the pins hold the parser to that order.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ir/printer.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "text/corpus_gen.hpp"
#include "text/parser.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

/// Applies one seeded corruption; the kind and coordinates all derive from
/// `rng`, so a failing seed reproduces exactly.
std::string mutate(const std::string& base, Rng& rng) {
  if (base.empty()) return base;
  std::string text = base;
  const auto pick_offset = [&] {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
  };
  switch (rng.uniform(0, 3)) {
    case 0:  // truncate
      text.resize(pick_offset());
      break;
    case 1: {  // flip a bit
      const std::size_t at = pick_offset();
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform(0, 7)));
      break;
    }
    case 2: {  // splice a chunk of the document over another location
      const std::size_t from = pick_offset();
      const std::size_t to = pick_offset();
      const std::size_t len = static_cast<std::size_t>(rng.uniform(1, 64));
      text = text.substr(0, to) + text.substr(from, len) +
             text.substr(std::min(text.size(), to + len));
      break;
    }
    default: {  // delete a span
      const std::size_t at = pick_offset();
      const std::size_t len = static_cast<std::size_t>(rng.uniform(1, 32));
      text.erase(at, len);
      break;
    }
  }
  return text;
}

/// The whole contract: parse succeeds, or throws ParseError. Everything
/// else fails the test with the offending document's seed.
void expect_structured_outcome(const std::string& text, std::uint64_t seed) {
  try {
    parse_module(text);
  } catch (const ParseError& e) {
    EXPECT_GE(e.line(), 1) << "seed " << seed;
    EXPECT_GE(e.col(), 1) << "seed " << seed;
  } catch (const std::exception& e) {
    FAIL() << "seed " << seed << ": non-ParseError escaped the parser: " << e.what();
  }
}

/// The document `seed` corrupts `base` into: one to three stacked
/// corruptions, each drifting further from well-formed.
std::string corrupted(const std::string& base, std::uint64_t seed) {
  Rng rng(seed);
  std::string text = base;
  const int rounds = static_cast<int>(rng.uniform(1, 3));
  for (int i = 0; i < rounds; ++i) text = mutate(text, rng);
  return text;
}

TEST(TextMutation, CorruptedRegistryDocumentsNeverEscapeStructuredErrors) {
  // Two shapes: the branchiest registry kernel and a generated one with
  // custom-free straight loops — different grammar surfaces.
  std::vector<std::string> bases;
  bases.push_back(module_to_string(find_workload("crc32").module()));
  bases.push_back(module_to_string(find_workload("adpcmdecode").module()));
  for (const std::string& base : bases) {
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
      expect_structured_outcome(corrupted(base, seed), seed);
    }
  }
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One parse's outcome as a line: "ok <hash of the reprint>", or the
/// ParseError's "error L:C <expected> | <message>".
std::string parse_outcome(const std::string& text) {
  try {
    return "ok " + hex16(hash_bytes(module_to_string(*parse_module(text))));
  } catch (const ParseError& e) {
    return "error " + std::to_string(e.line()) + ":" + std::to_string(e.col()) + " " +
           e.expected() + " | " + e.message();
  }
}

/// A base document's pinned outcomes: the digest of seeds 1..seeds, and one
/// check byte per seed (two hex digits) that locates the first seed to differ.
struct OutcomePin {
  const char* document;
  std::uint64_t seeds;
  std::uint64_t digest;
  const char* seed_bytes;
};

void expect_pinned_outcomes(const std::string& base, const OutcomePin& pin) {
  std::vector<std::string> outcomes;
  std::uint64_t digest = kHashSeed;
  std::string bytes;
  for (std::uint64_t seed = 1; seed <= pin.seeds; ++seed) {
    outcomes.push_back(parse_outcome(corrupted(base, seed)));
    const std::uint64_t h = hash_bytes(outcomes.back());
    digest = hash_combine(digest, h);
    char byte[3];
    std::snprintf(byte, sizeof byte, "%02x", static_cast<unsigned>(h & 0xff));
    bytes += byte;
  }
  if (digest == pin.digest) return;
  const std::string pinned = pin.seed_bytes;
  std::size_t first = 0;
  while (first < outcomes.size() && 2 * first + 2 <= pinned.size() &&
         pinned.compare(2 * first, 2, bytes, 2 * first, 2) == 0) {
    ++first;
  }
  ADD_FAILURE() << pin.document << ": outcomes moved from the pins ("
                << (first < outcomes.size()
                        ? "first differing seed " + std::to_string(first + 1) + ": " +
                              outcomes[first]
                        : std::string("no seed's check byte differs")) +
                       ")\n  re-recorded: 0x"
                << hex16(digest) << "ULL,\n  \"" << bytes << "\"";
}

// Recorded with the tokenize-then-parse frontend, which lexes the whole
// document before it parses any of it.
const OutcomePin kOutcomePins[] = {
    {"crc32", 150, 0x1adba81ddb83e537ULL,
     "00dbbc7e9a1ca4c182b73149164fb569a50350a3695bb41d2116bdfd8a18"
     "c9f76296ad66155f82c63654333012a81957726cbe1f6173531648d1efc1"
     "9adef0fe055ad643e2db3128d007b21f9b04ad933596728a30a874988b75"
     "c994cb7fdb15668dc806bbadee01264cc264af026ac1fd7bcbce890fc6d2"
     "a059045537868abc2bfc602d38496a083766ef93a6be54b181044cc03c4d"},
    {"adpcmdecode", 150, 0xe0a8752dbe47b5d7ULL,
     "8c0966c2ed2b9db21a2e2c66a04c0877b21528c8050a35d018bd62d970fb"
     "417ad6c7e0ca1ce11c4c485acc0a11777ec6eb84c4fce45d9bdc8a599315"
     "ac4d3e8d136c1f61eeebb73ab2dcaad5d0a1021fa6fac1eb5cd5994bc277"
     "5435042eaaf56e88dc49985004bfe4eec3a1025328c42649d7b1cbb0bff9"
     "906c4f1b0fa4b4d3d4a6f1d188f4068ef6417b74aa3e15c4dddea0da3983"},
    {"gen1001 (4096 ops)", 100, 0x00873b02e84fd5a5ULL,
     "dd1b07a6ddd8741303612053c1445c342608f8654facca159f9c7a3d3bf0"
     "348f91916c5b347fd91231f12bc1ca8a5cb70eee8a3d7cd2435946ed07fc"
     "87fdf9ff55882c4b8deddc762e348ee5df211435e1d69cb19618a24bfbcf"
     "89d882f37710c6da38b0"},
};

TEST(TextMutation, CorruptedDocumentsKeepTheirPinnedOutcomes) {
  CorpusGenConfig config;
  config.seed = 1001;
  config.num_ops = 4096;
  const std::string bases[] = {
      module_to_string(find_workload("crc32").module()),
      module_to_string(find_workload("adpcmdecode").module()),
      module_to_string(generate_workload(config).module()),
  };
  for (std::size_t i = 0; i < std::size(bases); ++i) {
    expect_pinned_outcomes(bases[i], kOutcomePins[i]);
  }
}

TEST(TextMutation, ArbitraryBytesNeverEscapeStructuredErrors) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    std::string text;
    const int len = static_cast<int>(rng.uniform(0, 512));
    text.reserve(static_cast<std::size_t>(len));
    for (int i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    expect_structured_outcome(text, seed);
  }
}

TEST(TextMutation, CorruptedWorkloadHeadersNeverEscapeTheLoader) {
  // The loader layers directives and an interpreter probe on top of the
  // parser; its failure surface is the library Error hierarchy (ParseError
  // for text, Error for semantic/probe failures), never anything rawer.
  const std::string base = dump_workload(find_workload("fir"));
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    // Mutate only the directive header so the probe (when reached) still
    // runs the intact, terminating kernel.
    const std::size_t header_end = base.find("module");
    ASSERT_NE(header_end, std::string::npos);
    std::string header = base.substr(0, header_end);
    Rng header_rng(seed * 977);
    header = mutate(header, header_rng);
    try {
      load_workload_string(header + base.substr(header_end));
    } catch (const Error&) {
      // structured — fine
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": non-Error escaped the loader: " << e.what();
    }
  }
}

}  // namespace
}  // namespace isex
