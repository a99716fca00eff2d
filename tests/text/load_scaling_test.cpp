// The ir_text load path grows linearly with the kernel: an input eight
// times larger may cost at most 24x as much. Linear growth measures ~6-16x;
// a quadratic step, such as a per-operand rescan of the function or a
// linear scan of the literals seen so far, measures ~40-100x.
//
// ctest runs tests in parallel on a machine others share, so each timing is
// the best of three in thread CPU time, and a ratio over the bound is
// measured again up to twice: a quadratic step exceeds it every time, noise
// rarely three times in a row.
#include <gtest/gtest.h>

#include <string>

#include "../support/thread_cpu.hpp"
#include "ir/printer.hpp"
#include "text/corpus_gen.hpp"
#include "text/workload_file.hpp"

namespace isex {
namespace {

constexpr double kMaxCostRatio = 24.0;  // for an 8x larger input

struct LoadCost {
  double load_ms = 0;   // load_workload_string: parse, verify, probe, fingerprint
  double print_ms = 0;  // module_to_string alone
};

LoadCost measure(const std::string& document) {
  const Workload loaded = load_workload_string(document);
  LoadCost cost;
  cost.load_ms = best_of_three_ms([&] {
    EXPECT_EQ(load_workload_string(document).content_fingerprint(), loaded.content_fingerprint());
  });
  cost.print_ms =
      best_of_three_ms([&] { EXPECT_FALSE(module_to_string(loaded.module()).empty()); });
  return cost;
}

void expect_linear(const std::string& small, const std::string& large, const char* what) {
  LoadCost s;
  LoadCost l;
  for (int attempt = 0; attempt < 3; ++attempt) {
    s = measure(small);
    l = measure(large);
    if (l.load_ms <= kMaxCostRatio * s.load_ms && l.print_ms <= kMaxCostRatio * s.print_ms) break;
  }
  EXPECT_LE(l.load_ms, kMaxCostRatio * s.load_ms)
      << what << ": load " << s.load_ms << " ms -> " << l.load_ms << " ms";
  EXPECT_LE(l.print_ms, kMaxCostRatio * s.print_ms)
      << what << ": print " << s.print_ms << " ms -> " << l.print_ms << " ms";
}

std::string corpus_kernel(int num_ops) {
  CorpusGenConfig config;
  config.seed = 7;
  config.num_ops = num_ops;
  return generate_workload_text(config);
}

/// A straight-line chain with a distinct literal operand per instruction.
std::string distinct_literal_document(int num_literals) {
  std::string text =
      "args [3]\nmodule lits\nfunc lits(arg0) {\nentry:\n  v0 = add arg0, 1000000\n";
  for (int k = 1; k < num_literals; ++k) {
    text += "  v" + std::to_string(k) + " = add v" + std::to_string(k - 1) + ", " +
            std::to_string(1000000 + k) + "\n";
  }
  text += "  ret v" + std::to_string(num_literals - 1) + "\n}\n";
  return text;
}

TEST(LoadScaling, CorpusKernelLoadIsLinearInOps) {
  expect_linear(corpus_kernel(1024), corpus_kernel(8192), "corpus_gen 1k -> 8k ops");
}

TEST(LoadScaling, LoadIsLinearInDistinctLiterals) {
  expect_linear(distinct_literal_document(4096), distinct_literal_document(32768),
                "4k -> 32k distinct literals");
}

}  // namespace
}  // namespace isex
