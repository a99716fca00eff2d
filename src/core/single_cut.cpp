#include "core/single_cut.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/search_tables.hpp"
#include "support/cancellation.hpp"
#include "support/parallel.hpp"

namespace isex {

namespace {

/// A best-cut improvement observed during the search: the merit and a
/// snapshot of the cut words at that point.
struct Event {
  double merit = 0.0;
  std::vector<std::uint64_t> cut;
};

/// One independent subtree of the enumeration tree: the include/exclude
/// decisions of the first `resume_ci` candidates.
struct SubtreeTask {
  std::vector<std::uint8_t> decisions;
  std::uint32_t resume_ci = 0;
};

/// One element of the serial visitation order: either an inline improvement
/// event or a spawned subtree task (whose own events splice in here). The
/// merge replays this stream sequentially, which reproduces the serial
/// engine's best cut and its exact best_updates count.
struct Slot {
  int task = -1;  // >= 0: subtree task index; -1: inline event
  Event event;
};

/// The word-parallel walker. kWords fixes the row width at compile time so
/// every closure scan unrolls (kWords == 0 keeps it dynamic for graphs
/// beyond 256 nodes).
///
/// Two structural savings over the reference engine, both stat-exact:
///  * the walk decides only candidates — non-candidate nodes are never
///    members and their consumers all decide first, so convexity can test
///    each successor's descendant row directly against the cut instead of
///    maintaining per-node reach flags (the reference's per-visit
///    auto-exclusion runs vanish);
///  * exclusion mutates nothing (a non-member is simply absent from the
///    cut), so 0-branches transform the current frame in place and the
///    stack holds only live includes — and on a pruning path, a *failing*
///    1-branch is classified with pure reads and never touches the state.
template <int kWords>
class CutEngine {
 public:
  /// direct: keep the running best in place (the serial engine — also what
  /// branch-and-bound needs, its bound consults the global best).
  /// record: emit improvement events over a task-local running best for the
  /// deterministic merge (the split generator and every subtree task).
  enum class Mode { direct, record };

  CutEngine(const SearchTables& t, const Constraints& cons, BudgetGate& gate,
            CancelToken* cancel, Mode mode)
      : t_(t),
        cons_(cons),
        gate_(&gate),
        cancel_(cancel),
        mode_(mode),
        limited_(gate.limited()),
        rows_(t),
        cut_(rows_.words(), 0),
        cp_(t.num_nodes, 0.0),
        feeds_(t.num_nodes, 0) {
    if (mode_ == Mode::direct) best_cut_.assign(rows_.words(), 0);
  }

  /// Re-applies a generator-recorded decision prefix, mutating the
  /// incremental state without counting statistics or budget (the generator
  /// already accounted every prefix 1-branch).
  void replay(const SubtreeTask& task) {
    for (std::uint32_t ci = 0; ci < task.resume_ci; ++ci) {
      if (!task.decisions[ci]) continue;  // exclusion leaves no state behind
      const std::uint32_t u = t_.cand_node[ci];
      const bool is_out = rows_.escapes(rows_.dsucc(u), cut_.data());
      const bool viol = convexity_violation(u);
      Frame scratch;
      include(u, scratch, is_out, viol);  // restore data unused: prefixes never unwind
    }
  }

  /// Runs the walk from candidate index `start_ci`. With `split_depth > 0`
  /// (generator mode), descents past that depth become `tasks` instead.
  void search(std::uint32_t start_ci, int split_depth, std::vector<SubtreeTask>* tasks) {
    split_depth_ = split_depth;
    tasks_ = tasks;
    if (split_depth_ > 0) path_.assign(static_cast<std::size_t>(split_depth_), 0);
    const std::uint32_t num_cand = static_cast<std::uint32_t>(t_.cand_node.size());
    if (start_ci >= num_cand) return;
    stack_.clear();
    stack_.reserve(num_cand);
    stack_.push_back(Frame{start_ci, 0, 0, 0, 0, 0.0});
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.stage == 1) {  // back from the 1-subtree: undo, take the 0-branch
        undo_include(t_.cand_node[f.ci], f);
        take_zero_branch(f);
        continue;
      }
      if (f.ci >= num_cand || (limited_ && gate_->exhausted()) ||
          (cancel_ != nullptr && cancel_->poll())) {
        stack_.pop_back();
        continue;
      }
      enter(f);
    }
  }

  const EnumerationStats& stats() const { return stats_; }
  double best_merit() const { return best_merit_; }
  const std::vector<std::uint64_t>& best_cut_words() const { return best_cut_; }
  std::vector<Slot> take_slots() { return std::move(slots_); }
  const std::vector<Slot>& slots() const { return slots_; }

 private:
  struct Frame {
    std::uint32_t ci = 0;   // candidate index this frame decides
    std::uint8_t stage = 0; // 0: enter, 1: its 1-subtree finished
    std::uint8_t convex_violation = 0;
    std::uint8_t is_output = 0;
    std::uint8_t tent_removed = 0;
    double old_crit = 0.0;
  };

  bool in_cut(std::uint32_t x) const { return cut_[x >> 6] >> (x & 63) & 1; }

  /// A path u -> excluded -> cut member exists iff some successor outside
  /// the cut has a descendant row intersecting the cut (all successors are
  /// decided before u — the search-order invariant).
  bool convexity_violation(std::uint32_t u) const {
    for (std::uint32_t j = t_.succ_off[u]; j < t_.succ_off[u + 1]; ++j) {
      const std::uint32_t s = t_.succ_node[j];
      if (!in_cut(s) && rows_.meets(rows_.desc(s), cut_.data())) return true;
    }
    return false;
  }

  Cycles rounded_hw_cycles() const {
    return static_cast<Cycles>(std::max(1.0, std::ceil(crit_ - 1e-9)));
  }

  void enter(Frame& f) {
    const std::uint32_t u = t_.cand_node[f.ci];
    if (limited_ && !gate_->consume()) {  // budget: the whole 1-branch is skipped
      take_zero_branch(f);
      return;
    }
    ++stats_.cuts_considered;

    if (cons_.enable_pruning) {
      // On a pruning path every ancestor passed both checks, so
      // out_count_ <= Nout and convex_viol_ == 0 hold here. A failing
      // 1-branch never descends — classify it with pure reads (output
      // first: the classification mirrors Fig. 6's check order) and move
      // straight to the 0-branch; no state to mutate, nothing to undo.
      const bool is_out = rows_.escapes(rows_.dsucc(u), cut_.data());
      if (out_count_ + (is_out ? 1 : 0) > cons_.max_outputs) {
        ++stats_.failed_output;
        take_zero_branch(f);
        return;
      }
      if (convexity_violation(u)) {
        ++stats_.failed_convex;
        take_zero_branch(f);
        return;
      }
      ++stats_.passed_checks;
      include(u, f, is_out, false);
      const Cycles hw_cyc = rounded_hw_cycles();
      if (in_perm_ + in_tent_ <= cons_.max_inputs) {
        offer(t_.exec_freq * static_cast<double>(sw_sum_ - hw_cyc));
      }
      bool descend = true;
      if (cons_.prune_permanent_inputs && in_perm_ > cons_.max_inputs) {
        ++stats_.pruned_inputs;
        descend = false;
      }
      if (descend && cons_.branch_and_bound) {
        const double bound =
            t_.exec_freq *
            static_cast<double>(sw_sum_ + t_.cand_sw_suffix[f.ci + 1] - hw_cyc);
        if (bound <= best_merit_) {
          ++stats_.pruned_bound;
          descend = false;
        }
      }
      if (descend) {
        take_one_branch(f);
      } else {
        undo_include(u, f);
        take_zero_branch(f);
      }
      return;
    }

    // Pruning disabled (ablation): the walk descends through violations, so
    // the full include always happens and the counters carry the state.
    const bool is_out = rows_.escapes(rows_.dsucc(u), cut_.data());
    const bool viol = convexity_violation(u);
    include(u, f, is_out, viol);
    const bool out_ok = out_count_ <= cons_.max_outputs;
    const bool convex_ok = convex_viol_ == 0;
    if (out_ok && convex_ok) {
      ++stats_.passed_checks;
      if (in_perm_ + in_tent_ <= cons_.max_inputs) {
        offer(t_.exec_freq * static_cast<double>(sw_sum_ - rounded_hw_cycles()));
      }
    } else if (!out_ok) {
      ++stats_.failed_output;
    } else {
      ++stats_.failed_convex;
    }
    bool descend = true;
    if (cons_.prune_permanent_inputs && in_perm_ > cons_.max_inputs) {
      ++stats_.pruned_inputs;
      descend = false;
    }
    if (descend && cons_.branch_and_bound) {
      const double bound =
          t_.exec_freq * static_cast<double>(sw_sum_ + t_.cand_sw_suffix[f.ci + 1] -
                                             rounded_hw_cycles());
      if (bound <= best_merit_) {
        ++stats_.pruned_bound;
        descend = false;
      }
    }
    if (descend) {
      take_one_branch(f);
    } else {
      undo_include(u, f);
      take_zero_branch(f);
    }
  }

  /// Descends into the 1-subtree — or, in generator mode at the split
  /// depth, records it as a task and lets stage 1 undo the include next.
  void take_one_branch(Frame& f) {
    f.stage = 1;
    const std::uint32_t child = f.ci + 1;
    if (split_depth_ > 0) {
      path_[f.ci] = 1;
      if (child >= static_cast<std::uint32_t>(split_depth_)) {
        spawn(child);
        return;
      }
    }
    stack_.push_back(Frame{child, 0, 0, 0, 0, 0.0});  // may invalidate f
  }

  /// The 0-branch leaves no state behind, so the frame just advances in
  /// place (the stack only ever holds live includes) — or spawns the
  /// subtree as a task at the split depth and retires.
  void take_zero_branch(Frame& f) {
    const std::uint32_t next = f.ci + 1;
    if (split_depth_ > 0) {
      path_[f.ci] = 0;
      if (next >= static_cast<std::uint32_t>(split_depth_)) {
        spawn(next);
        stack_.pop_back();
        return;
      }
    }
    f.ci = next;
    f.stage = 0;
  }

  void spawn(std::uint32_t resume_ci) {
    // An exhausted budget makes every further task a no-op (its worker
    // exits on the shared gate immediately); don't count ghosts. Same for
    // a tripped cancel token.
    if (limited_ && gate_->exhausted()) return;
    if (cancel_ != nullptr && cancel_->cancelled()) return;
    SubtreeTask task;
    task.decisions.assign(path_.begin(), path_.begin() + resume_ci);
    task.resume_ci = resume_ci;
    slots_.push_back(Slot{static_cast<int>(tasks_->size()), {}});
    tasks_->push_back(std::move(task));
  }

  void offer(double merit) {
    if (merit <= best_merit_) return;
    best_merit_ = merit;
    if (mode_ == Mode::direct) {
      best_cut_ = cut_;
      ++stats_.best_updates;  // the merge recomputes this in record mode
    } else {
      slots_.push_back(Slot{-1, Event{merit, cut_}});
    }
  }

  /// `is_out` / `viol` are computed by the caller *before* the cut bit
  /// flips (they read the pre-include cut).
  void include(std::uint32_t u, Frame& f, bool is_out, bool viol) {
    f.is_output = is_out;
    f.convex_violation = viol;
    if (viol) ++convex_viol_;
    if (is_out) ++out_count_;
    cut_[u >> 6] |= std::uint64_t{1} << (u & 63);
    sw_sum_ += t_.sw[u];

    // Inputs: new external producers of u; u itself may stop being one.
    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (++feeds_[t_.in_node[j]] == 1) {
        t_.in_perm[j] ? ++in_perm_ : ++in_tent_;
      }
    }
    f.tent_removed = feeds_[u] > 0;
    if (f.tent_removed) --in_tent_;

    // Critical path: all in-cut consumers are decided, so cp(u) is final.
    cp_[u] = rows_.max_over(rows_.dsucc(u), cut_.data(), cp_.data()) + t_.hw[u];
    f.old_crit = crit_;
    crit_ = std::max(crit_, cp_[u]);
  }

  void undo_include(std::uint32_t u, const Frame& f) {
    crit_ = f.old_crit;
    if (f.tent_removed) ++in_tent_;
    for (std::uint32_t j = t_.in_off[u]; j < t_.in_off[u + 1]; ++j) {
      if (--feeds_[t_.in_node[j]] == 0) {
        t_.in_perm[j] ? --in_perm_ : --in_tent_;
      }
    }
    if (f.is_output) --out_count_;
    if (f.convex_violation) --convex_viol_;
    sw_sum_ -= t_.sw[u];
    cut_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  }

  const SearchTables& t_;
  const Constraints& cons_;
  BudgetGate* gate_;
  CancelToken* cancel_;
  const Mode mode_;
  const bool limited_;
  const RowView<kWords> rows_;

  std::vector<std::uint64_t> cut_;
  std::vector<double> cp_;
  std::vector<std::int32_t> feeds_;
  Cycles sw_sum_ = 0;
  int out_count_ = 0;
  int in_perm_ = 0;
  int in_tent_ = 0;
  int convex_viol_ = 0;
  double crit_ = 0.0;

  double best_merit_ = 0.0;
  std::vector<std::uint64_t> best_cut_;  // direct mode only

  EnumerationStats stats_;
  std::vector<Frame> stack_;
  std::vector<Slot> slots_;  // record mode only

  int split_depth_ = 0;
  std::vector<std::uint8_t> path_;
  std::vector<SubtreeTask>* tasks_ = nullptr;
};

template <int kWords>
SingleCutResult run_search(const Dfg& g, const SearchTables& tables,
                           const Constraints& constraints, const CutSearchOptions& options) {
  using Engine = CutEngine<kWords>;
  // An externally shared gate (the service's per-request budget) overrides
  // the per-search one; both enforce min(demand, budget) exactly.
  BudgetGate local_gate(options.budget != nullptr ? 0 : constraints.search_budget);
  BudgetGate& gate = options.budget != nullptr ? *options.budget : local_gate;
  SingleCutResult result;

  // Branch-and-bound prunes against the global running best, which subtree
  // tasks cannot share without making the visited tree racy — those
  // searches stay serial (and stat-exact).
  const bool split = options.split_depth > 0 && !constraints.branch_and_bound;
  if (!split) {
    Engine engine(tables, constraints, gate, options.cancel, Engine::Mode::direct);
    engine.search(0, 0, nullptr);
    result.merit = engine.best_merit();
    result.cut = to_bitvector(g.num_nodes(), engine.best_cut_words().data(), tables.words);
    result.stats = engine.stats();
    if (options.stats != nullptr) {
      options.stats->serial_searches.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Generator: the serial engine over the first split_depth candidate
    // decisions, recording each surviving depth-limit descent as a task.
    Engine generator(tables, constraints, gate, options.cancel, Engine::Mode::record);
    std::vector<SubtreeTask> tasks;
    generator.search(0, options.split_depth, &tasks);

    struct TaskOutcome {
      EnumerationStats stats;
      std::vector<Slot> slots;
    };
    std::vector<TaskOutcome> outcomes(tasks.size());
    Executor* executor =
        options.executor != nullptr ? options.executor : &serial_executor();
    executor->parallel_for(tasks.size(), [&](std::size_t i) {
      Engine worker(tables, constraints, gate, options.cancel, Engine::Mode::record);
      worker.replay(tasks[i]);
      worker.search(tasks[i].resume_ci, 0, nullptr);
      outcomes[i] = TaskOutcome{worker.stats(), worker.take_slots()};
    });

    // Deterministic merge: replay the improvement events in the serial
    // engine's visitation order. An event survives iff it beats everything
    // visited before it — exactly the serial best-update sequence, so the
    // final cut, merit and best_updates count match the serial run bit for
    // bit (events are recorded against task-local running bests, which only
    // ever *under*-approximate the serial best: anything they suppress the
    // serial engine would have skipped too).
    EnumerationStats stats = generator.stats();
    for (const TaskOutcome& outcome : outcomes) stats += outcome.stats;
    stats.best_updates = 0;
    double best_merit = 0.0;
    const std::vector<std::uint64_t>* best_words = nullptr;
    const auto consider = [&](const Event& e) {
      if (e.merit > best_merit) {
        best_merit = e.merit;
        best_words = &e.cut;
        ++stats.best_updates;
      }
    };
    for (const Slot& slot : generator.slots()) {
      if (slot.task < 0) {
        consider(slot.event);
        continue;
      }
      for (const Slot& task_slot : outcomes[static_cast<std::size_t>(slot.task)].slots) {
        consider(task_slot.event);
      }
    }
    result.merit = best_merit;
    result.cut = best_words != nullptr
                     ? to_bitvector(g.num_nodes(), best_words->data(), tables.words)
                     : BitVector(g.num_nodes());
    result.stats = stats;
    if (options.stats != nullptr) {
      options.stats->split_searches.fetch_add(1, std::memory_order_relaxed);
      options.stats->subtree_tasks.fetch_add(tasks.size(), std::memory_order_relaxed);
    }
  }
  result.stats.budget_exhausted = gate.exhausted();
  result.stats.cancelled = options.cancel != nullptr && options.cancel->cancelled();
  return result;
}

}  // namespace

SingleCutResult find_best_cut(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints,
                              const CutSearchOptions& options) {
  ISEX_CHECK(g.finalized(), "find_best_cut: graph not finalized");
  ISEX_CHECK(constraints.max_inputs >= 1 && constraints.max_outputs >= 1,
             "constraints must allow at least one input and output");
  const SearchTables tables = SearchTables::build(g, latency);
  SingleCutResult result = dispatch_words(tables.words, [&](auto width) {
    return run_search<decltype(width)::value>(g, tables, constraints, options);
  });
  if (result.cut.any()) result.metrics = compute_metrics(g, result.cut, latency);
  return result;
}

SingleCutResult find_best_cut(const Dfg& g, const LatencyModel& latency,
                              const Constraints& constraints) {
  return find_best_cut(g, latency, constraints, CutSearchOptions{});
}

}  // namespace isex
