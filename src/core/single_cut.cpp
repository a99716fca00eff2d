#include "core/single_cut.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "core/search_tables.hpp"
#include "support/cancellation.hpp"
#include "support/parallel.hpp"

namespace isex {

namespace {

/// Cuts a subtree task considers between two donations. Every time a task's
/// own cuts_considered count crosses a multiple of this, it queues the
/// pending 0-branch of its shallowest undonated include as a new task. The
/// trigger reads nothing but the task's own count, so the task set is a pure
/// function of the graph, the constraints and the split depth.
constexpr std::uint64_t kDonationQuantum = 16384;

/// A best-cut improvement observed during the search: the merit and a
/// snapshot of the cut words at that point.
struct Event {
  double merit = 0.0;
  std::vector<std::uint64_t> cut;
};

/// One element of the serial visitation order: either an inline improvement
/// event or a queued subtree task (whose own slots splice in here). The
/// merge replays these streams sequentially, which reproduces the serial
/// engine's best cut and its exact best_updates count.
struct Slot {
  int task = -1;  // >= 0: subtree task index; -1: inline event
  Event event;
};

/// One independent subtree of the enumeration tree, and what running it
/// recorded.
struct SubtreeTask {
  /// The include decisions of the first `resume_ci` candidates, as cut
  /// words: a candidate below resume_ci is included iff its bit is set.
  std::vector<std::uint64_t> prefix;
  std::uint32_t resume_ci = 0;
  /// The donor's running best when it queued the task: a lower bound on the
  /// serial best before this subtree, so starting from it drops no event
  /// the merge needs.
  double seed_merit = 0.0;
  EnumerationStats stats;
  std::vector<Slot> slots;
};

/// The tasks of one split search: the generator's, then every donated one,
/// claimed in order by the worker loops. A deque, so a donation never moves
/// a task another worker is running.
class TaskQueue {
 public:
  /// Appends `task` and returns its index.
  std::size_t push(SubtreeTask task) {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ready_.notify_one();
    return tasks_.size() - 1;
  }

  /// Runs `run` on queued tasks until none is queued and none is running
  /// (a running task may still donate). A task that throws still leaves
  /// the queue, so the other loops finish and the exception propagates.
  template <typename Run>
  void drain(const Run& run) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      ready_.wait(lock, [&] { return next_ < tasks_.size() || running_ == 0; });
      if (next_ == tasks_.size()) return;
      SubtreeTask& task = tasks_[next_++];
      ++running_;
      lock.unlock();
      try {
        run(task);
      } catch (...) {
        lock.lock();
        --running_;
        ready_.notify_all();
        throw;
      }
      lock.lock();
      if (--running_ == 0) ready_.notify_all();
    }
  }

  /// Not while a drain runs.
  const std::deque<SubtreeTask>& tasks() const { return tasks_; }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<SubtreeTask> tasks_;
  std::size_t next_ = 0;
  std::size_t running_ = 0;
};

/// direct: keep the running best in place (the serial engine — also what
/// branch-and-bound needs, its bound consults the global best).
/// record: emit improvement events over a task-local running best for the
/// deterministic merge (the split generator and every subtree task).
/// A template argument, so the serial engine's loop carries none of the
/// split and donation checks.
enum class Mode { direct, record };

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
template <int kWords, Mode kMode>
class CutEngine {
 public:
  CutEngine(const SearchTables& t, const Constraints& cons, BudgetGate& gate,
            CancelToken* cancel)
      : t_(t),
        cons_(cons),
        gate_(&gate),
        cancel_(cancel),
        limited_(gate.limited()),
        rows_(t),
        cut_(rows_.words(), 0),
        cp_(t.num_nodes, 0.0),
        feeds_(t.num_nodes, 0) {
    if constexpr (kMode == Mode::direct) best_cut_.assign(rows_.words(), 0);
  }

  /// Re-applies a queued task's decision prefix, mutating the incremental
  /// state without counting statistics or budget (its donor already
  /// accounted every prefix 1-branch), frees the prefix, and starts from
  /// the donor's running best.
  void replay(SubtreeTask& task) {
    const std::vector<std::uint64_t> prefix = std::move(task.prefix);
    for (std::uint32_t ci = 0; ci < task.resume_ci; ++ci) {
      const std::uint32_t u = t_.cand_node[ci];
      if ((prefix[u >> 6] >> (u & 63) & 1) == 0) continue;  // exclusion leaves no state
      const bool is_out = rows_.escapes(rows_.dsucc(u), cut_.data());
      const bool viol = convexity_violation(u);
      Frame scratch;
      include(u, scratch, is_out, viol);  // restore data unused: prefixes never unwind
    }
    best_merit_ = task.seed_merit;
  }

  /// Runs the walk from candidate index `start_ci`. With `split_depth` > 0
  /// (the generator), descents past that depth are queued on `queue` as
  /// tasks instead; with a queue and no split depth (a task), the walk
  /// donates to it every kDonationQuantum cuts.
  ///
  /// Out of line, so each engine keeps one copy of the loop with enter()
  /// inlined into it: inlined into a recorder's two callers, the loop lost
  /// enter() and subtree tasks ran about 35% slower.
  [[gnu::noinline]] void search(std::uint32_t start_ci, int split_depth, TaskQueue* queue) {
    split_depth_ = split_depth;
    queue_ = queue;
    donating_ = queue != nullptr && split_depth == 0;
    const std::uint32_t num_cand = static_cast<std::uint32_t>(t_.cand_node.size());
    if (start_ci >= num_cand) return;
    stack_.reserve(num_cand);
    stack_.push_back(Frame{start_ci, 0, 0, 0, 0, 0.0});
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      if (f.stage != 0) {  // back from the 1-subtree: undo, then the 0-branch
        undo_include(t_.cand_node[f.ci], f);
        if (f.stage == 1) {
          take_zero_branch(f);
        } else {  // its task's slot stands where the 0-branch's events would
          slots_.push_back(Slot{donated_.back(), {}});
          donated_.pop_back();
          stack_.pop_back();
        }
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

 private:
  struct Frame {
    std::uint32_t ci = 0;   // candidate index this frame decides
    std::uint8_t stage = 0; // 0: enter; 1: in its 1-subtree; 2: ditto, 0-branch donated
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
    if constexpr (kMode == Mode::record) {
      if (donating_ && stats_.cuts_considered % kDonationQuantum == 0) donate();
    }

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
  /// depth, queues it as a task and lets stage 1 undo the include next.
  void take_one_branch(Frame& f) {
    f.stage = 1;
    const std::uint32_t child = f.ci + 1;
    if (kMode == Mode::record && split_depth_ > 0 &&
        child >= static_cast<std::uint32_t>(split_depth_)) {
      spawn(child);
      return;
    }
    stack_.push_back(Frame{child, 0, 0, 0, 0, 0.0});  // may invalidate f
  }

  /// The 0-branch leaves no state behind, so the frame just advances in
  /// place (the stack only ever holds live includes) — or queues the
  /// subtree as a task at the split depth and retires.
  void take_zero_branch(Frame& f) {
    const std::uint32_t next = f.ci + 1;
    if (kMode == Mode::record && split_depth_ > 0 &&
        next >= static_cast<std::uint32_t>(split_depth_)) {
      spawn(next);
      stack_.pop_back();
      return;
    }
    f.ci = next;
    f.stage = 0;
  }

  /// The generator decides only candidates below `resume_ci`, so its cut
  /// words are exactly the task's decision prefix.
  void spawn(std::uint32_t resume_ci) {
    if (may_queue()) slots_.push_back(Slot{enqueue(cut_, resume_ci), {}});
  }

  /// Queues the pending 0-branch of the shallowest undonated include.
  /// Donated frames stay a contiguous run at the bottom of the stack (each
  /// donation takes the frame just above them), so that include is
  /// stack_[donated_.size()], if it lies below the frame being entered.
  void donate() {
    const std::size_t d = donated_.size();
    if (d + 1 >= stack_.size() || !may_queue()) return;
    std::vector<std::uint64_t> prefix = cut_;
    for (std::size_t i = d; i + 1 < stack_.size(); ++i) {  // its include and all deeper
      const std::uint32_t u = t_.cand_node[stack_[i].ci];
      prefix[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
    }
    stack_[d].stage = 2;
    donated_.push_back(enqueue(std::move(prefix), stack_[d].ci + 1));
  }

  /// An exhausted budget makes every further task a no-op (its walk exits
  /// on the shared gate at once); don't count ghosts. Same for a tripped
  /// cancel token.
  bool may_queue() const {
    return !(limited_ && gate_->exhausted()) && !(cancel_ != nullptr && cancel_->cancelled());
  }

  int enqueue(std::vector<std::uint64_t> prefix, std::uint32_t resume_ci) {
    return static_cast<int>(
        queue_->push(SubtreeTask{std::move(prefix), resume_ci, best_merit_, {}, {}}));
  }

  void offer(double merit) {
    if (merit <= best_merit_) return;
    best_merit_ = merit;
    if constexpr (kMode == Mode::direct) {
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

  int split_depth_ = 0;         // generator only
  TaskQueue* queue_ = nullptr;  // generator and tasks
  bool donating_ = false;       // tasks only
  std::vector<int> donated_;    // task index per stage-2 frame, bottom up
};

template <int kWords>
SingleCutResult run_search(const Dfg& g, const SearchTables& tables,
                           const Constraints& constraints, const CutSearchOptions& options) {
  using Serial = CutEngine<kWords, Mode::direct>;
  using Recorder = CutEngine<kWords, Mode::record>;
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
    Serial engine(tables, constraints, gate, options.cancel);
    engine.search(0, 0, nullptr);
    result.merit = engine.best_merit();
    result.cut = to_bitvector(g.num_nodes(), engine.best_cut_words().data(), tables.words);
    result.stats = engine.stats();
    if (options.stats != nullptr) {
      options.stats->serial_searches.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Generator: the serial engine over the first split_depth candidate
    // decisions, queueing each surviving depth-limit descent as a task.
    // One worker loop per executor thread then drains the queue, which the
    // running tasks keep refilling by donation.
    TaskQueue queue;
    Recorder generator(tables, constraints, gate, options.cancel);
    generator.search(0, options.split_depth, &queue);
    const std::vector<Slot> root = generator.take_slots();
    const std::size_t eager_tasks = queue.tasks().size();
    Executor* executor =
        options.executor != nullptr ? options.executor : &serial_executor();
    executor->parallel_for(static_cast<std::size_t>(executor->num_threads()), [&](std::size_t) {
      queue.drain([&](SubtreeTask& task) {
        Recorder worker(tables, constraints, gate, options.cancel);
        worker.replay(task);
        worker.search(task.resume_ci, 0, &queue);
        task.stats = worker.stats();
        task.slots = worker.take_slots();
      });
    });
    const std::deque<SubtreeTask>& tasks = queue.tasks();

    // Deterministic merge: replay the improvement events in the serial
    // engine's visitation order, splicing each task's slots in where its
    // slot stands in its donor's. An event survives iff it beats everything
    // visited before it — exactly the serial best-update sequence, so the
    // final cut, merit and best_updates count match the serial run bit for
    // bit (tasks start from their donor's running best, which only ever
    // *under*-approximates the serial best before them: anything they
    // suppress the serial engine would have skipped too).
    EnumerationStats stats = generator.stats();
    for (const SubtreeTask& task : tasks) stats += task.stats;
    stats.best_updates = 0;
    double best_merit = 0.0;
    const std::vector<std::uint64_t>* best_words = nullptr;
    std::vector<std::pair<const Slot*, const Slot*>> streams{
        {root.data(), root.data() + root.size()}};
    while (!streams.empty()) {
      auto& [next, end] = streams.back();
      if (next == end) {
        streams.pop_back();
        continue;
      }
      const Slot& slot = *next++;
      if (slot.task >= 0) {
        const std::vector<Slot>& spliced = tasks[static_cast<std::size_t>(slot.task)].slots;
        streams.emplace_back(spliced.data(), spliced.data() + spliced.size());
      } else if (slot.event.merit > best_merit) {
        best_merit = slot.event.merit;
        best_words = &slot.event.cut;
        ++stats.best_updates;
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
      options.stats->donated_tasks.fetch_add(tasks.size() - eager_tasks,
                                             std::memory_order_relaxed);
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

}  // namespace isex
