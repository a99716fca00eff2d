#include "core/multi_cut.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/search_tables.hpp"
#include "support/cancellation.hpp"

namespace isex {

namespace {

constexpr int kMaxCuts = 8;  // the quotient closure packs one byte per label

/// Bit d set: label d. At most kMaxCuts labels, so one byte.
using Labels = std::uint32_t;

/// The word-parallel (M+1)-ary walker, on the single-cut engine's design
/// (src/core/single_cut.cpp): kWords fixes the row width at compile time
/// (0 keeps it dynamic beyond 256 nodes). The state is one cut-word row per
/// label plus their union; a node in no cut needs no state at all, so
/// 0-branches mutate nothing and the walk decides only candidates.
///
/// Legality is quotient acyclicity. Every descendant of the node under
/// decision is decided before it (the search-order invariant), so:
///  * u reaches label d iff its descendant row meets cut d, so including u
///    into c adds the quotient edges c -> d for those labels d != c (a label
///    u reaches through a member of c, c already reaches);
///  * a path u -> (no cut) -> c, a self-loop in the quotient, exists iff a
///    successor outside every cut has a descendant row meeting cut c;
///  * the quotient's transitive closure `reach_` holds one byte per label
///    (byte i: the labels label i reaches). Adding edges c -> D gives every
///    row that is c, or reaches c, the bits of D and of D's rows, and a
///    cycle forms iff c is in D or some d in D already reaches c.
/// The walk visits, counts and budgets exactly like the retained reference
/// engine (one cancel poll per walk call), so results and every statistic
/// are byte-identical to it.
template <int kWords>
class MultiCutEngine {
 public:
  MultiCutEngine(const SearchTables& t, const Constraints& cons, int m, BudgetGate& gate,
                 CancelToken* cancel)
      : t_(t),
        cons_(cons),
        m_(m),
        gate_(gate),
        cancel_(cancel),
        rows_(t),
        cuts_(static_cast<std::size_t>(m) * rows_.words(), 0),
        members_(rows_.words(), 0),
        cp_(t.num_nodes, 0.0),
        feeds_(static_cast<std::size_t>(m) * t.num_nodes, 0) {}

  MultiCutResult run() {
    walk(0);
    best_.stats = stats_;
    best_.stats.budget_exhausted = gate_.exhausted();
    best_.stats.cancelled = cancel_ != nullptr && cancel_->cancelled();
    return std::move(best_);
  }

 private:
  /// What an include changed beyond the label's own row and counters.
  struct Undo {
    std::uint64_t reach = 0;
    double crit = 0.0;
    Cycles hw = 0;
    bool is_output = false;
    bool tent_removed = false;
  };

  std::uint64_t* cut(int c) { return cuts_.data() + static_cast<std::size_t>(c) * rows_.words(); }
  const std::uint64_t* cut(int c) const {
    return cuts_.data() + static_cast<std::size_t>(c) * rows_.words();
  }

  std::uint32_t reach_row(int i) const { return (reach_ >> (8 * i)) & 0xFF; }
  bool quotient_cyclic() const { return (reach_ & 0x8040201008040201ULL) != 0; }
  bool stopped() const {
    return gate_.exhausted() || (cancel_ != nullptr && cancel_->cancelled());
  }

  /// The other non-empty labels u reaches: the quotient edges its include
  /// into c adds besides a self-loop.
  Labels labels_reached(std::uint32_t u, int c) const {
    Labels reached = 0;
    for (int d = 0; d < open_; ++d) {
      if (d != c && rows_.meets(rows_.desc(u), cut(d))) reached |= 1u << d;
    }
    return reached;
  }

  /// A path u -> (no cut) -> member of c: the quotient self-loop c -> c.
  bool loops_back(std::uint32_t u, int c) const {
    for (std::uint32_t j = t_.succ_off[u]; j < t_.succ_off[u + 1]; ++j) {
      const std::uint32_t s = t_.succ_node[j];
      if (!(members_[s >> 6] >> (s & 63) & 1) && rows_.meets(rows_.desc(s), cut(c))) return true;
    }
    return false;
  }

  /// Whether adding the edges c -> `reached` closes a cycle through c.
  bool closes_cycle(int c, Labels reached) const {
    for (int d = 0; d < open_; ++d) {
      if ((reached >> d & 1) && (reach_row(d) >> c & 1)) return true;
    }
    return false;
  }

  void walk(std::uint32_t ci) {
    if (gate_.exhausted()) return;
    if (cancel_ != nullptr && cancel_->poll()) return;
    if (ci == t_.cand_node.size()) return;
    const std::uint32_t u = t_.cand_node[ci];
    // Symmetry breaking: only one new label may open per decision.
    const int max_label = std::min(m_ - 1, open_);
    for (int c = 0; c <= max_label && !stopped(); ++c) {
      if (!gate_.consume()) break;
      ++stats_.cuts_considered;
      branch(ci, u, c);
    }
    // 0-branch: a node in no cut leaves no state behind.
    if (!stopped()) walk(ci + 1);
  }

  void branch(std::uint32_t ci, std::uint32_t u, int c) {
    const bool is_out = rows_.escapes(rows_.dsucc(u), cut(c));
    // On a pruning path every ancestor passed both checks, so every label
    // is within Nout and the quotient is acyclic here. A failing 1-branch
    // never descends: classify it with pure reads (output first, Fig. 6's
    // order) and leave the state untouched.
    if (cons_.enable_pruning && out_count_[c] + (is_out ? 1 : 0) > cons_.max_outputs) {
      ++stats_.failed_output;
      return;
    }
    const bool self_loop = loops_back(u, c);
    if (cons_.enable_pruning && self_loop) {
      ++stats_.failed_convex;
      return;
    }
    const Labels reached = labels_reached(u, c);
    if (cons_.enable_pruning && closes_cycle(c, reached)) {
      ++stats_.failed_convex;
      return;
    }

    const Undo undo = include(u, c, is_out, reached | (self_loop ? 1u << c : 0u));
    if (out_count_[c] > cons_.max_outputs) {
      ++stats_.failed_output;  // pruning disabled: the walk descends anyway
    } else if (quotient_cyclic()) {
      ++stats_.failed_convex;
    } else {
      ++stats_.passed_checks;
      if (inputs_ok()) {
        const double total = total_merit();
        if (total > best_.total_merit) record_best(total);
      }
    }
    if (descend(ci)) walk(ci + 1);
    undo_include(u, c, undo);
  }

  bool inputs_ok() const {
    for (int d = 0; d < m_; ++d) {
      if (in_perm_[d] + in_tent_[d] > cons_.max_inputs) return false;
    }
    return true;
  }

  bool descend(std::uint32_t ci) {
    if (cons_.prune_permanent_inputs) {
      for (int d = 0; d < m_; ++d) {
        if (in_perm_[d] > cons_.max_inputs) {
          ++stats_.pruned_inputs;
          return false;
        }
      }
    }
    if (cons_.branch_and_bound) {
      double bound = t_.exec_freq * static_cast<double>(t_.cand_sw_suffix[ci + 1]);
      for (int d = 0; d < m_; ++d) {
        bound += label_merit(d);
      }
      if (bound <= best_.total_merit) {
        ++stats_.pruned_bound;
        return false;
      }
    }
    return true;
  }

  /// Adds u to label c, whose quotient edges go to `targets`.
  Undo include(std::uint32_t u, int c, bool is_out, Labels targets) {
    Undo undo;
    undo.reach = reach_;
    undo.is_output = is_out;
    if (is_out) ++out_count_[c];
    if (size_[c]++ == 0) ++open_;
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    cut(c)[u >> 6] |= bit;
    members_[u >> 6] |= bit;
    sw_sum_[c] += t_.sw[u];

    // Incremental closure: every row that is c or reaches c gains the
    // targets and everything they reach.
    Labels gained = targets;
    for (int d = 0; d < m_; ++d) {
      if (targets >> d & 1) gained |= reach_row(d);
    }
    if (gained != 0) {
      for (int i = 0; i < m_; ++i) {
        if (i == c || (reach_row(i) >> c & 1)) {
          reach_ |= static_cast<std::uint64_t>(gained) << (8 * i);
        }
      }
    }

    // Inputs: new external producers of label c; u itself may stop being one.
    std::int32_t* feeds = feeds_.data() + static_cast<std::size_t>(c) * t_.num_nodes;
    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (++feeds[t_.in_node[j]] == 1) {
        t_.in_perm[j] ? ++in_perm_[c] : ++in_tent_[c];
      }
    }
    undo.tent_removed = feeds[u] > 0;
    if (undo.tent_removed) --in_tent_[c];

    // Critical path: all of u's in-cut consumers are decided, so cp(u) is final.
    cp_[u] = rows_.max_over(rows_.dsucc(u), cut(c), cp_.data()) + t_.hw[u];
    undo.crit = crit_[c];
    undo.hw = hw_cycles_[c];
    crit_[c] = std::max(crit_[c], cp_[u]);
    hw_cycles_[c] = static_cast<Cycles>(std::max(1.0, std::ceil(crit_[c] - 1e-9)));
    return undo;
  }

  void undo_include(std::uint32_t u, int c, const Undo& undo) {
    crit_[c] = undo.crit;
    hw_cycles_[c] = undo.hw;
    std::int32_t* feeds = feeds_.data() + static_cast<std::size_t>(c) * t_.num_nodes;
    if (undo.tent_removed) ++in_tent_[c];
    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (--feeds[t_.in_node[j]] == 0) {
        t_.in_perm[j] ? --in_perm_[c] : --in_tent_[c];
      }
    }
    reach_ = undo.reach;
    sw_sum_[c] -= t_.sw[u];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    cut(c)[u >> 6] &= ~bit;
    members_[u >> 6] &= ~bit;
    if (--size_[c] == 0) --open_;
    if (undo.is_output) --out_count_[c];
  }

  double label_merit(int c) const {
    return t_.exec_freq * static_cast<double>(sw_sum_[c] - hw_cycles_[c]);
  }

  double total_merit() const {
    double total = 0.0;
    for (int c = 0; c < open_; ++c) total += label_merit(c);
    return total;
  }

  void record_best(double total) {
    best_.total_merit = total;
    best_.cuts.clear();
    std::vector<std::pair<double, int>> ranked;
    for (int c = 0; c < open_; ++c) ranked.emplace_back(label_merit(c), c);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [merit, c] : ranked) {
      best_.cuts.push_back(to_bitvector(t_.num_nodes, cut(c), rows_.words()));
    }
    ++stats_.best_updates;
  }

  const SearchTables& t_;
  const Constraints& cons_;
  const int m_;
  BudgetGate& gate_;
  CancelToken* cancel_;
  const RowView<kWords> rows_;

  std::vector<std::uint64_t> cuts_;     // label-major: m rows of words()
  std::vector<std::uint64_t> members_;  // union of the cut rows
  std::vector<double> cp_;
  std::vector<std::int32_t> feeds_;     // label-major: m rows of num_nodes
  std::array<int, kMaxCuts> size_{}, out_count_{}, in_perm_{}, in_tent_{};
  std::array<Cycles, kMaxCuts> sw_sum_{};
  std::array<double, kMaxCuts> crit_{};
  /// Rounded-up hardware cycles per label, 0 for an empty one: one Cycles
  /// value, so the bound and the merit it prunes against cannot diverge.
  std::array<Cycles, kMaxCuts> hw_cycles_{};
  int open_ = 0;  // non-empty labels, always the prefix 0..open_-1
  std::uint64_t reach_ = 0;

  EnumerationStats stats_;
  MultiCutResult best_;
};

}  // namespace

MultiCutResult find_best_cuts(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints, int num_cuts,
                              const CutSearchOptions& options) {
  ISEX_CHECK(g.finalized(), "find_best_cuts: graph not finalized");
  ISEX_CHECK(num_cuts >= 1 && num_cuts <= kMaxCuts, "num_cuts must be in [1, 8]");
  const SearchTables tables = SearchTables::build(g, latency);
  // An externally shared gate overrides the per-search budget, exactly as in
  // the single-cut runner.
  BudgetGate local_gate(options.budget != nullptr ? 0 : constraints.search_budget);
  BudgetGate& gate = options.budget != nullptr ? *options.budget : local_gate;
  return dispatch_words(tables.words, [&](auto width) {
    return MultiCutEngine<decltype(width)::value>(tables, constraints, num_cuts, gate,
                                                  options.cancel)
        .run();
  });
}

}  // namespace isex
