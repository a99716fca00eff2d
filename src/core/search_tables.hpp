// Word-parallel support structures shared by the enumeration engines
// (single- and multiple-cut identification, src/core/single_cut.cpp and
// src/core/multi_cut.cpp).
//
// The engines spend their inner loop answering three questions about the
// node under decision — "can it still reach the current cut?", "did it just
// become an output?", "does it break convexity?" — and summing per-node
// latencies. SearchTables flattens everything those questions touch into
// index-addressed arrays built once per search:
//
//  * raw 64-bit row pointers into the transitive-closure and data-successor
//    rows the Dfg precomputes at finalize() (and therefore shares through
//    the extraction cache), so the checks become a handful of AND/ANDNOT
//    word operations instead of per-edge scans through checked accessors;
//  * the LatencyModel flattened into per-node sw_cycles[] / hw_delay[]
//    arrays (one opcode resolution per node per search, not one per visit);
//  * CSR adjacency and a pre-classified CSR of countable inputs;
//  * the candidates in search order with integer suffix latency sums (the
//    branch-and-bound bound, in the one Cycles type end-to-end).
//
// RowView is the row arithmetic both engines run on those tables (meets,
// escapes, the critical-path max), unrolled per row width by dispatch_words.
//
// BudgetGate is the engines' shared search-budget accountant: exact (the
// consumed count never overshoots and saturates at the budget) and safe to
// share across subtree-parallel tasks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/constraints.hpp"
#include "dfg/dfg.hpp"
#include "latency/latency_model.hpp"
#include "support/bitvector.hpp"

namespace isex {

/// Exact, shareable search-budget accounting. consume() hands out at most
/// `budget` tickets in total across all threads (0 = unlimited); a failed
/// consume sets the exhausted flag. The number of successful consumes is
/// deterministic: min(demand, budget).
///
/// A gate may outlive one search: pass it through CutSearchOptions::budget
/// and every search sharing it draws tickets from the *same* pool — the
/// per-request budget of the exploration service, which builds one gate
/// per job. The job's aggregate cuts_considered then pins exactly at
/// min(demand, budget) across any number of identification calls, thread
/// counts and split depths.
class BudgetGate {
 public:
  explicit BudgetGate(std::uint64_t budget) : budget_(budget) {}

  BudgetGate(const BudgetGate&) = delete;
  BudgetGate& operator=(const BudgetGate&) = delete;

  /// Accounts one considered cut. False once the budget is exhausted.
  bool consume() {
    if (budget_ == 0) return true;
    if (consumed_.fetch_add(1, std::memory_order_relaxed) >= budget_) {
      consumed_.fetch_sub(1, std::memory_order_relaxed);  // never overshoot
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

  /// True when this gate enforces a finite budget (a zero-budget gate is a
  /// pass-through and never exhausts).
  bool limited() const { return budget_ != 0; }
  std::uint64_t budget() const { return budget_; }
  /// Tickets handed out so far; equals the cuts_considered charged against
  /// this gate once the searches drawing on it have finished.
  std::uint64_t consumed() const { return consumed_.load(std::memory_order_relaxed); }

 private:
  const std::uint64_t budget_;
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<bool> exhausted_{false};
};

/// Per-search flattening of one (graph, latency model) pair. The closure
/// rows are the Dfg's own row-major arrays (node n's row starts at
/// n * words), so the engines walk them with nothing but base-plus-offset
/// arithmetic; the tables borrow them and must not outlive the graph.
struct SearchTables {
  std::size_t num_nodes = 0;
  std::size_t words = 0;  // 64-bit words per node-set row
  double exec_freq = 1.0;

  // The graph's rows (row n: [n*words, (n+1)*words)); null when it has no node.
  const std::uint64_t* desc_rows = nullptr;       // transitive descendants
  const std::uint64_t* data_succ_rows = nullptr;  // immediate data successors

  // CSR immediate adjacency (data and ordering edges) in edge order: the
  // engines' convexity checks walk it against desc_rows.
  std::vector<std::uint32_t> succ_off, succ_node;

  // CSR of the *countable* data predecessors per node, in edge order:
  // deduplicated edges with constants (hardwired into the AFU) dropped and
  // the permanent-input classification pre-resolved (paper Sec. 5: V+
  // inputs and forbidden producers can never be internalised by growing
  // the cut upstream).
  std::vector<std::uint32_t> in_off, in_node;
  std::vector<std::uint8_t> in_perm;

  // Flattened latency model (op nodes; zero elsewhere, never read there).
  std::vector<Cycles> sw;
  std::vector<double> hw;

  // The candidates in search order: non-candidate nodes (V+ outputs,
  // memory ops) are never members and all their consumers decide before
  // them, so the engines walk only the candidate decisions — the per-visit
  // auto-exclusion runs of the reference engines vanish entirely.
  std::vector<std::uint32_t> cand_node;
  /// Suffix sums of candidate software latency by candidate index; equal to
  /// the reference engines' full-order suffix sums at the matching position
  /// (non-candidates contribute nothing in between).
  std::vector<Cycles> cand_sw_suffix;  // size cand_node.size() + 1

  static SearchTables build(const Dfg& g, const LatencyModel& latency);
};

/// Word-parallel arithmetic on node-set rows of one SearchTables, at a row
/// width fixed at compile time (kWords == 0 keeps it dynamic beyond 256
/// nodes; see dispatch_words). Both engines keep their cuts as such rows.
template <int kWords>
class RowView {
 public:
  explicit RowView(const SearchTables& t)
      : desc_(t.desc_rows), dsucc_(t.data_succ_rows), dynamic_words_(t.words) {}

  std::size_t words() const { return kWords > 0 ? std::size_t{kWords} : dynamic_words_; }

  /// Node n's transitive descendants and immediate data successors.
  const std::uint64_t* desc(std::uint32_t n) const { return desc_ + n * words(); }
  const std::uint64_t* dsucc(std::uint32_t n) const { return dsucc_ + n * words(); }

  /// Whether `row` and `cut` share a node.
  bool meets(const std::uint64_t* row, const std::uint64_t* cut) const {
    for (std::size_t w = 0; w < words(); ++w) {
      if (row[w] & cut[w]) return true;
    }
    return false;
  }

  /// Whether `row` has a node outside `cut`.
  bool escapes(const std::uint64_t* row, const std::uint64_t* cut) const {
    for (std::size_t w = 0; w < words(); ++w) {
      if (row[w] & ~cut[w]) return true;
    }
    return false;
  }

  /// The largest value[x] over the nodes x in both `row` and `cut`; 0 if none.
  double max_over(const std::uint64_t* row, const std::uint64_t* cut, const double* value) const {
    double longest = 0.0;
    for (std::size_t w = 0; w < words(); ++w) {
      std::uint64_t bits = row[w] & cut[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        longest = std::max(longest, value[(w << 6) + static_cast<std::size_t>(b)]);
      }
    }
    return longest;
  }

 private:
  const std::uint64_t* desc_;
  const std::uint64_t* dsucc_;
  std::size_t dynamic_words_;
};

/// The cut bits of one `words`-wide row as a BitVector of `size` bits.
BitVector to_bitvector(std::size_t size, const std::uint64_t* row, std::size_t words);

/// Calls `fn(std::integral_constant<int, W>{})` with W = `words` for rows of
/// one to four words and W = 0 (the runtime-width engine) beyond, so each
/// engine's closure scans unroll on every graph up to 256 nodes.
template <typename Fn>
decltype(auto) dispatch_words(std::size_t words, Fn&& fn) {
  switch (words) {
    case 1:
      return fn(std::integral_constant<int, 1>{});
    case 2:
      return fn(std::integral_constant<int, 2>{});
    case 3:
      return fn(std::integral_constant<int, 3>{});
    case 4:
      return fn(std::integral_constant<int, 4>{});
    default:
      return fn(std::integral_constant<int, 0>{});
  }
}

}  // namespace isex
