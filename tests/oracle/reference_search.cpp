// Retained pre-rebuild engines. Deliberately untouched beyond renames: this
// file is the executable specification tests/benches pin the fast engines
// against, so its logic must track the paper, not the optimisations.
#include "reference_search.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace isex {

namespace {

namespace ref_single {

enum : std::int8_t { kUndecided = 0, kInCut = 1, kExcluded = 2 };

class SingleCutSearch {
 public:
  SingleCutSearch(const Dfg& g, const LatencyModel& lat, const Constraints& cons)
      : g_(g), lat_(lat), cons_(cons), order_(g.search_order()) {
    const std::size_t n = g.num_nodes();
    state_.assign(n, kUndecided);
    reach_.assign(n, 0);
    feeds_.assign(n, 0);
    cp_.assign(n, 0.0);
    cut_ = BitVector(n);
    best_.cut = BitVector(n);

    // Suffix sums of candidate software latency along the search order, for
    // the optional branch-and-bound merit bound.
    sw_suffix_.assign(order_.size() + 1, 0);
    for (std::size_t k = order_.size(); k-- > 0;) {
      const DfgNode& node = g_.node(order_[k]);
      const bool candidate = node.kind == NodeKind::op && !node.forbidden;
      sw_suffix_[k] =
          sw_suffix_[k + 1] + (candidate ? node_sw_cycles(g_, order_[k], lat_) : 0);
    }
  }

  SingleCutResult run() {
    walk(0);
    best_.stats = stats_;
    if (best_.cut.any()) best_.metrics = compute_metrics(g_, best_.cut, lat_);
    return best_;
  }

 private:
  bool budget_hit() {
    if (cons_.search_budget != 0 && stats_.cuts_considered >= cons_.search_budget) {
      stats_.budget_exhausted = true;
      return true;
    }
    return false;
  }

  /// Reach flag of a node at decision time: true if it can reach any member
  /// of the current cut.
  bool compute_reach(NodeId n) const {
    const DfgNode& node = g_.node(n);
    for (NodeId s : node.succs) {
      if (state_[s.index] == kInCut || reach_[s.index]) return true;
    }
    return false;
  }

  void walk(std::size_t k) {
    if (stats_.budget_exhausted) return;

    // Auto-exclude the run of non-candidate nodes (V+ outputs, memory ops):
    // they only need their reach flags maintained.
    std::size_t auto_end = k;
    while (auto_end < order_.size()) {
      const DfgNode& node = g_.node(order_[auto_end]);
      if (node.kind == NodeKind::op && !node.forbidden) break;
      ++auto_end;
    }
    for (std::size_t j = k; j < auto_end; ++j) {
      const NodeId n = order_[j];
      state_[n.index] = kExcluded;
      reach_[n.index] = compute_reach(n) ? 1 : 0;
    }
    if (auto_end == order_.size()) {
      undo_autos(k, auto_end);
      return;
    }

    const NodeId u = order_[auto_end];

    // ---- 1-branch: include u ------------------------------------------
    if (!budget_hit()) {
      ++stats_.cuts_considered;
      const Frame f = include(u);
      const bool out_ok = out_count_ <= cons_.max_outputs;
      const bool convex_ok = convex_viol_ == 0;
      if (out_ok && convex_ok) {
        ++stats_.passed_checks;
        if (in_perm_ + in_tent_ <= cons_.max_inputs) {
          const double merit = current_merit();
          if (merit > best_.merit) {
            best_.merit = merit;
            best_.cut = cut_;
            ++stats_.best_updates;
          }
        }
      } else if (!out_ok) {
        ++stats_.failed_output;  // classification mirrors Fig. 6's check order
      } else {
        ++stats_.failed_convex;
      }

      bool descend = true;
      if (cons_.enable_pruning && (!out_ok || !convex_ok)) descend = false;
      if (descend && cons_.prune_permanent_inputs && in_perm_ > cons_.max_inputs) {
        ++stats_.pruned_inputs;
        descend = false;
      }
      if (descend && cons_.branch_and_bound) {
        const double bound =
            g_.exec_freq() *
            (sw_sum_ + sw_suffix_[auto_end + 1] - std::max(1.0, std::ceil(crit_ - 1e-9)));
        if (bound <= best_.merit) {
          ++stats_.pruned_bound;
          descend = false;
        }
      }
      if (descend) walk(auto_end + 1);
      undo_include(u, f);
    }

    // ---- 0-branch: exclude u ------------------------------------------
    state_[u.index] = kExcluded;
    reach_[u.index] = compute_reach(u) ? 1 : 0;
    walk(auto_end + 1);
    state_[u.index] = kUndecided;

    undo_autos(k, auto_end);
  }

  void undo_autos(std::size_t from, std::size_t to) {
    for (std::size_t j = to; j-- > from;) state_[order_[j].index] = kUndecided;
  }

  struct Frame {
    double old_crit = 0.0;
    bool convex_violation = false;
    bool is_output = false;
    int tent_removed = 0;  // u itself stopped being an external producer
    // Preds whose feed count went 0 -> 1 are replayed in reverse on undo.
  };

  Frame include(const NodeId u) {
    Frame f;
    const DfgNode& node = g_.node(u);
    state_[u.index] = kInCut;
    cut_.set(u.index);
    reach_[u.index] = 1;
    sw_sum_ += node_sw_cycles(g_, u, lat_);

    // Convexity: a path u -> excluded -> cut means the subtree is dead.
    for (NodeId s : node.succs) {
      if (state_[s.index] == kExcluded && reach_[s.index]) {
        f.convex_violation = true;
        break;
      }
    }
    if (f.convex_violation) ++convex_viol_;

    // Output count: all consumers are decided; any outside the cut makes u
    // an output now and forever.
    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      if (!node.succ_is_data[j]) continue;
      if (state_[node.succs[j].index] != kInCut) {
        f.is_output = true;
        break;
      }
    }
    if (f.is_output) ++out_count_;

    // Inputs: new external producers of u; u itself may stop being one.
    for (std::size_t j = 0; j < node.preds.size(); ++j) {
      if (!node.pred_is_data[j]) continue;
      const NodeId p = node.preds[j];
      const DfgNode& pn = g_.node(p);
      if (pn.kind == NodeKind::constant) continue;
      if (++feeds_[p.index] == 1) {
        if (pn.kind == NodeKind::input || pn.forbidden) {
          ++in_perm_;  // can never be internalised
        } else {
          ++in_tent_;
        }
      }
    }
    if (feeds_[u.index] > 0) {
      --in_tent_;
      f.tent_removed = 1;
    }

    // Critical path: all in-cut consumers are decided, so cp(u) is final.
    double longest = 0.0;
    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      const NodeId s = node.succs[j];
      if (node.succ_is_data[j] && state_[s.index] == kInCut) {
        longest = std::max(longest, cp_[s.index]);
      }
    }
    cp_[u.index] = longest + node_hw_delay(g_, u, lat_);
    f.old_crit = crit_;
    crit_ = std::max(crit_, cp_[u.index]);
    return f;
  }

  void undo_include(const NodeId u, const Frame& f) {
    const DfgNode& node = g_.node(u);
    crit_ = f.old_crit;
    if (f.tent_removed) ++in_tent_;
    for (std::size_t j = node.preds.size(); j-- > 0;) {
      if (!node.pred_is_data[j]) continue;
      const NodeId p = node.preds[j];
      const DfgNode& pn = g_.node(p);
      if (pn.kind == NodeKind::constant) continue;
      if (--feeds_[p.index] == 0) {
        if (pn.kind == NodeKind::input || pn.forbidden) {
          --in_perm_;
        } else {
          --in_tent_;
        }
      }
    }
    if (f.is_output) --out_count_;
    if (f.convex_violation) --convex_viol_;
    sw_sum_ -= node_sw_cycles(g_, u, lat_);
    reach_[u.index] = 0;
    cut_.reset(u.index);
    state_[u.index] = kUndecided;
  }

  double current_merit() const {
    const double hw = cut_.any() ? std::max(1.0, std::ceil(crit_ - 1e-9)) : 0.0;
    return g_.exec_freq() * (sw_sum_ - hw);
  }

  const Dfg& g_;
  const LatencyModel& lat_;
  const Constraints cons_;
  const std::vector<NodeId>& order_;

  std::vector<std::int8_t> state_;
  std::vector<std::uint8_t> reach_;
  std::vector<int> feeds_;
  std::vector<double> cp_;
  std::vector<int> sw_suffix_;
  BitVector cut_;

  int out_count_ = 0;
  int in_perm_ = 0;
  int in_tent_ = 0;
  int convex_viol_ = 0;
  int sw_sum_ = 0;
  double crit_ = 0.0;

  EnumerationStats stats_;
  SingleCutResult best_;
};

}  // namespace ref_single

namespace ref_multi {

constexpr int kMaxCuts = 8;  // quotient reachability packs into one uint64

constexpr std::int8_t kUndecided = -2;
constexpr std::int8_t kExcluded = -1;
// labels 0..M-1 denote cut membership.

class MultiCutSearch {
 public:
  MultiCutSearch(const Dfg& g, const LatencyModel& lat, const Constraints& cons, int m)
      : g_(g), lat_(lat), cons_(cons), m_(m), order_(g.search_order()) {
    const std::size_t n = g.num_nodes();
    state_.assign(n, kUndecided);
    reach_mask_.assign(n, 0);
    cp_.assign(n, 0.0);
    feeds_.assign(static_cast<std::size_t>(m_) * n, 0);
    out_count_.assign(m_, 0);
    in_perm_.assign(m_, 0);
    in_tent_.assign(m_, 0);
    sw_sum_.assign(m_, 0);
    crit_.assign(m_, 0.0);
    cut_size_.assign(m_, 0);
    cuts_.assign(m_, BitVector(n));

    sw_suffix_.assign(order_.size() + 1, 0);
    for (std::size_t k = order_.size(); k-- > 0;) {
      const DfgNode& node = g_.node(order_[k]);
      const bool candidate = node.kind == NodeKind::op && !node.forbidden;
      sw_suffix_[k] =
          sw_suffix_[k + 1] + (candidate ? node_sw_cycles(g_, order_[k], lat_) : 0);
    }
  }

  MultiCutResult run() {
    walk(0);
    best_.stats = stats_;
    return best_;
  }

 private:
  bool budget_hit() {
    if (cons_.search_budget != 0 && stats_.cuts_considered >= cons_.search_budget) {
      stats_.budget_exhausted = true;
      return true;
    }
    return false;
  }

  std::uint32_t succ_reach_mask(NodeId n) const {
    std::uint32_t mask = 0;
    for (NodeId s : g_.node(n).succs) {
      mask |= reach_mask_[s.index];
      if (state_[s.index] >= 0) mask |= 1u << state_[s.index];
    }
    return mask;
  }

  static std::uint64_t close(std::uint64_t r, int m) {
    // Floyd–Warshall over the m×m boolean matrix packed row-major in r.
    for (int k = 0; k < m; ++k) {
      for (int i = 0; i < m; ++i) {
        if (!(r >> (i * kMaxCuts + k) & 1)) continue;
        for (int j = 0; j < m; ++j) {
          if (r >> (k * kMaxCuts + j) & 1) r |= std::uint64_t{1} << (i * kMaxCuts + j);
        }
      }
    }
    return r;
  }

  static bool cyclic(std::uint64_t r, int m) {
    for (int i = 0; i < m; ++i) {
      if (r >> (i * kMaxCuts + i) & 1) return true;
    }
    return false;
  }

  void walk(std::size_t k) {
    if (stats_.budget_exhausted) return;

    std::size_t auto_end = k;
    while (auto_end < order_.size()) {
      const DfgNode& node = g_.node(order_[auto_end]);
      if (node.kind == NodeKind::op && !node.forbidden) break;
      ++auto_end;
    }
    for (std::size_t j = k; j < auto_end; ++j) {
      const NodeId n = order_[j];
      state_[n.index] = kExcluded;
      reach_mask_[n.index] = succ_reach_mask(n);
    }
    if (auto_end == order_.size()) {
      undo_autos(k, auto_end);
      return;
    }

    const NodeId u = order_[auto_end];

    // Symmetry breaking: only open one new cut label at a time.
    int open = 0;
    while (open < m_ && cut_size_[open] > 0) ++open;
    const int max_label = std::min(m_ - 1, open);

    for (int c = 0; c <= max_label && !stats_.budget_exhausted; ++c) {
      if (budget_hit()) break;
      ++stats_.cuts_considered;
      const Frame f = include(u, c);
      const bool out_ok = out_count_[c] <= cons_.max_outputs;
      const bool convex_ok = !quotient_cyclic_;
      if (out_ok && convex_ok) {
        ++stats_.passed_checks;
        bool inputs_ok = true;
        for (int d = 0; d < m_; ++d) {
          if (in_perm_[d] + in_tent_[d] > cons_.max_inputs) inputs_ok = false;
        }
        if (inputs_ok) {
          const double total = total_merit();
          if (total > best_.total_merit) record_best(total);
        }
      } else if (!out_ok) {
        ++stats_.failed_output;
      } else {
        ++stats_.failed_convex;
      }

      bool descend = true;
      if (cons_.enable_pruning && (!out_ok || !convex_ok)) descend = false;
      if (descend && cons_.prune_permanent_inputs) {
        for (int d = 0; d < m_; ++d) {
          if (in_perm_[d] > cons_.max_inputs) {
            ++stats_.pruned_inputs;
            descend = false;
            break;
          }
        }
      }
      if (descend && cons_.branch_and_bound) {
        double bound = g_.exec_freq() * sw_suffix_[auto_end + 1];
        for (int d = 0; d < m_; ++d) {
          bound += g_.exec_freq() *
                   (sw_sum_[d] - (cut_size_[d] > 0
                                      ? std::max(1.0, std::ceil(crit_[d] - 1e-9))
                                      : 0.0));
        }
        if (bound <= best_.total_merit) {
          ++stats_.pruned_bound;
          descend = false;
        }
      }
      if (descend) walk(auto_end + 1);
      undo_include(u, c, f);
    }

    // 0-branch: exclude u.
    if (!stats_.budget_exhausted) {
      state_[u.index] = kExcluded;
      reach_mask_[u.index] = succ_reach_mask(u);
      walk(auto_end + 1);
      state_[u.index] = kUndecided;
    }

    undo_autos(k, auto_end);
  }

  void undo_autos(std::size_t from, std::size_t to) {
    for (std::size_t j = to; j-- > from;) state_[order_[j].index] = kUndecided;
  }

  struct Frame {
    std::uint64_t old_reach = 0;
    double old_crit = 0.0;
    bool old_cyclic = false;
    bool is_output = false;
    int tent_removed = 0;
  };

  Frame include(const NodeId u, const int c) {
    Frame f;
    const DfgNode& node = g_.node(u);
    state_[u.index] = static_cast<std::int8_t>(c);
    cuts_[c].set(u.index);
    ++cut_size_[c];
    sw_sum_[c] += node_sw_cycles(g_, u, lat_);

    // Quotient edges introduced by u's outgoing paths.
    f.old_reach = quotient_reach_;
    f.old_cyclic = quotient_cyclic_;
    std::uint64_t r = quotient_reach_;
    std::uint32_t mask = 0;
    for (NodeId s : node.succs) {
      if (state_[s.index] >= 0 && state_[s.index] != c) {
        mask |= 1u << state_[s.index];
      } else if (state_[s.index] == kExcluded) {
        mask |= reach_mask_[s.index];  // paths through plain nodes
      }
    }
    for (int d = 0; d < m_; ++d) {
      if (mask >> d & 1) r |= std::uint64_t{1} << (c * kMaxCuts + d);
    }
    if (r != quotient_reach_) {
      r = close(r, m_);
      quotient_reach_ = r;
      quotient_cyclic_ = quotient_cyclic_ || cyclic(r, m_);
    }
    reach_mask_[u.index] = (1u << c) | succ_reach_mask(u);

    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      if (!node.succ_is_data[j]) continue;
      if (state_[node.succs[j].index] != c) {
        f.is_output = true;
        break;
      }
    }
    if (f.is_output) ++out_count_[c];

    for (std::size_t j = 0; j < node.preds.size(); ++j) {
      if (!node.pred_is_data[j]) continue;
      const NodeId p = node.preds[j];
      const DfgNode& pn = g_.node(p);
      if (pn.kind == NodeKind::constant) continue;
      if (++feeds_[feed_index(c, p)] == 1) {
        if (pn.kind == NodeKind::input || pn.forbidden) {
          ++in_perm_[c];
        } else {
          ++in_tent_[c];
        }
      }
    }
    if (feeds_[feed_index(c, u)] > 0) {
      --in_tent_[c];
      f.tent_removed = 1;
    }

    double longest = 0.0;
    for (std::size_t j = 0; j < node.succs.size(); ++j) {
      const NodeId s = node.succs[j];
      if (node.succ_is_data[j] && state_[s.index] == c) {
        longest = std::max(longest, cp_[s.index]);
      }
    }
    cp_[u.index] = longest + node_hw_delay(g_, u, lat_);
    f.old_crit = crit_[c];
    crit_[c] = std::max(crit_[c], cp_[u.index]);
    return f;
  }

  void undo_include(const NodeId u, const int c, const Frame& f) {
    const DfgNode& node = g_.node(u);
    crit_[c] = f.old_crit;
    if (f.tent_removed) ++in_tent_[c];
    for (std::size_t j = node.preds.size(); j-- > 0;) {
      if (!node.pred_is_data[j]) continue;
      const NodeId p = node.preds[j];
      const DfgNode& pn = g_.node(p);
      if (pn.kind == NodeKind::constant) continue;
      if (--feeds_[feed_index(c, p)] == 0) {
        if (pn.kind == NodeKind::input || pn.forbidden) {
          --in_perm_[c];
        } else {
          --in_tent_[c];
        }
      }
    }
    if (f.is_output) --out_count_[c];
    quotient_reach_ = f.old_reach;
    quotient_cyclic_ = f.old_cyclic;
    reach_mask_[u.index] = 0;
    sw_sum_[c] -= node_sw_cycles(g_, u, lat_);
    --cut_size_[c];
    cuts_[c].reset(u.index);
    state_[u.index] = kUndecided;
  }

  double total_merit() const {
    double total = 0.0;
    for (int c = 0; c < m_; ++c) {
      if (cut_size_[c] == 0) continue;
      total += g_.exec_freq() *
               (sw_sum_[c] - std::max(1.0, std::ceil(crit_[c] - 1e-9)));
    }
    return total;
  }

  void record_best(double total) {
    best_.total_merit = total;
    best_.cuts.clear();
    std::vector<std::pair<double, int>> ranked;
    for (int c = 0; c < m_; ++c) {
      if (cut_size_[c] == 0) continue;
      ranked.emplace_back(
          g_.exec_freq() * (sw_sum_[c] - std::max(1.0, std::ceil(crit_[c] - 1e-9))), c);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [merit, c] : ranked) best_.cuts.push_back(cuts_[c]);
    ++stats_.best_updates;
  }

  std::size_t feed_index(int c, NodeId p) const {
    return static_cast<std::size_t>(c) * g_.num_nodes() + p.index;
  }

  const Dfg& g_;
  const LatencyModel& lat_;
  const Constraints cons_;
  const int m_;
  const std::vector<NodeId>& order_;

  std::vector<std::int8_t> state_;
  std::vector<std::uint32_t> reach_mask_;
  std::vector<double> cp_;
  std::vector<int> feeds_;
  std::vector<int> out_count_, in_perm_, in_tent_, sw_sum_, cut_size_;
  std::vector<double> crit_;
  std::vector<BitVector> cuts_;
  std::vector<int> sw_suffix_;

  std::uint64_t quotient_reach_ = 0;
  bool quotient_cyclic_ = false;

  EnumerationStats stats_;
  MultiCutResult best_;
};

}  // namespace ref_multi

}  // namespace

SingleCutResult find_best_cut_reference(const Dfg& g, const LatencyModel& latency,
                                        const Constraints& constraints) {
  ISEX_CHECK(g.finalized(), "find_best_cut_reference: graph not finalized");
  ISEX_CHECK(constraints.max_inputs >= 1 && constraints.max_outputs >= 1,
             "constraints must allow at least one input and output");
  ref_single::SingleCutSearch search(g, latency, constraints);
  return search.run();
}

MultiCutResult find_best_cuts_reference(const Dfg& g, const LatencyModel& latency,
                                        const Constraints& constraints, int num_cuts) {
  ISEX_CHECK(g.finalized(), "find_best_cuts_reference: graph not finalized");
  ISEX_CHECK(num_cuts >= 1 && num_cuts <= ref_multi::kMaxCuts, "num_cuts must be in [1, 8]");
  ref_multi::MultiCutSearch search(g, latency, constraints, num_cuts);
  return search.run();
}

}  // namespace isex
