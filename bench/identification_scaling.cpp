// Identification-engine throughput bench with a tracked baseline.
//
// Sweeps the fig8 search-space workloads (crc32, adpcmdecode) under the
// paper's 4-in/2-out configuration through BOTH single-cut engines — the
// word-parallel production engine (find_best_cut) and the retained
// pre-rebuild reference (find_best_cut_reference) — asserting
// byte-identical results, then does the same for the multiple-cut engines
// (find_best_cuts vs find_best_cuts_reference) on Fig. 11's Optimal setting
// over the adpcmdecode, adpcmencode and g721 blocks, and finally measures
// subtree-parallel scaling on a large synthetic block, checking that every
// thread count runs the same subtree tasks. Emits a machine-readable
// BENCH_identification.json with cuts/sec, wall ms, speedups and the task
// count.
//
// Regression gating (--baseline FILE, e.g. bench/baselines/
// BENCH_identification.json): the *deterministic* gate compares the
// search-stats counters (cuts_considered per single- and multi-cut
// workload, and the subtree task count at the baseline's split depth)
// against the recorded baseline and fails on >25% drift — counters are
// exact across machines, so CI stays deterministic.
// Wall-clock throughput (cuts/sec vs the baseline's) is always reported but
// only enforced with --gate-wall, for local runs on the machine that
// recorded the baseline.
//
// Exit codes: 0 ok, 1 regression gate failed, 2 engines disagreed or the
// subtree task count differed between thread counts (never acceptable),
// 3 usage/IO error.
#include <chrono>
#include <thread>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/multi_cut.hpp"
#include "core/single_cut.hpp"
#include "dfg/random_dag.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "workloads/workload.hpp"

#include "reference_search.hpp"

using namespace isex;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One full pass over `items` (blocks, or multi-cut searches) with the given
/// engine; returns summed cuts_considered (and optionally the per-item
/// results for comparison).
template <typename Item, typename Fn,
          typename Result = std::invoke_result_t<const Fn&, const Item&>>
std::uint64_t sweep(const std::vector<Item>& items, const Fn& engine,
                    std::vector<Result>* out = nullptr) {
  std::uint64_t cuts = 0;
  for (const Item& item : items) {
    Result r = engine(item);
    cuts += r.stats.cuts_considered;
    if (out != nullptr) out->push_back(std::move(r));
  }
  return cuts;
}

/// Wall milliseconds per sweep, calibrated so the timed region runs at
/// least `target_ms` (counters stay exact regardless of repetitions).
template <typename Item, typename Fn>
double time_sweep(const std::vector<Item>& items, const Fn& engine, double target_ms) {
  const auto probe = Clock::now();
  sweep(items, engine);
  const double once = std::max(ms_since(probe), 1e-3);
  const int reps = std::max(3, static_cast<int>(std::ceil(target_ms / once)));
  const auto start = Clock::now();
  for (int r = 0; r < reps; ++r) sweep(items, engine);
  return ms_since(start) / reps;
}

bool same_stats(const EnumerationStats& a, const EnumerationStats& b) {
  return a.cuts_considered == b.cuts_considered && a.passed_checks == b.passed_checks &&
         a.failed_output == b.failed_output && a.failed_convex == b.failed_convex &&
         a.pruned_inputs == b.pruned_inputs && a.pruned_bound == b.pruned_bound &&
         a.best_updates == b.best_updates && a.budget_exhausted == b.budget_exhausted;
}

bool same_result(const SingleCutResult& a, const SingleCutResult& b) {
  return a.cut == b.cut && a.merit == b.merit && same_stats(a.stats, b.stats);
}

bool same_result(const MultiCutResult& a, const MultiCutResult& b) {
  return a.cuts == b.cuts && a.total_merit == b.total_merit && same_stats(a.stats, b.stats);
}

/// One multiple-cut identification of the Optimal scheme: a block and the
/// number of cuts it is granted.
struct MultiCutSearch {
  const Dfg* block = nullptr;
  int num_cuts = 0;
};

struct WorkloadRow {
  std::string name;
  int blocks = 0;
  int searches = 0;  // multi-cut rows: (block, num_cuts) searches per sweep
  int budget_exhausted = 0;  // multi-cut rows: searches that hit the budget
  std::uint64_t cuts_considered = 0;
  double reference_ms = 0.0;
  double engine_ms = 0.0;
  double engine_cuts_per_sec = 0.0;
  double speedup_vs_reference = 0.0;
};

/// Times both engines over `items` after checking them byte-identical;
/// false on the first disagreement.
template <typename Item, typename Ref, typename Eng>
bool measure(const std::string& name, const std::vector<Item>& items, const Ref& reference,
             const Eng& engine, double target_ms, WorkloadRow& row) {
  using Result = std::invoke_result_t<const Eng&, const Item&>;
  std::vector<Result> ref_results, eng_results;
  sweep(items, reference, &ref_results);
  const std::uint64_t eng_cuts = sweep(items, engine, &eng_results);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!same_result(ref_results[i], eng_results[i])) {
      std::cerr << "ENGINE MISMATCH on " << name << " item " << i
                << " — the word-parallel engine must be byte-identical to the "
                   "reference\n";
      return false;
    }
    if (eng_results[i].stats.budget_exhausted) ++row.budget_exhausted;
  }
  row.name = name;
  row.cuts_considered = eng_cuts;
  row.reference_ms = time_sweep(items, reference, target_ms);
  row.engine_ms = time_sweep(items, engine, target_ms);
  row.engine_cuts_per_sec = static_cast<double>(eng_cuts) / (row.engine_ms / 1000.0);
  row.speedup_vs_reference = row.reference_ms / row.engine_ms;
  return true;
}

Json row_json(const WorkloadRow& row) {
  Json r = Json::object();
  r.set("name", row.name);
  r.set("blocks", row.blocks);
  if (row.searches > 0) {
    r.set("searches", row.searches);
    r.set("budget_exhausted", row.budget_exhausted);
  }
  r.set("cuts_considered", row.cuts_considered);
  r.set("reference_ms", row.reference_ms);
  r.set("engine_ms", row.engine_ms);
  r.set("engine_cuts_per_sec", row.engine_cuts_per_sec);
  r.set("speedup_vs_reference", row.speedup_vs_reference);
  return r;
}

struct ThreadRow {
  int threads = 0;
  std::uint64_t tasks = 0;  // subtree tasks of one search, eager plus donated
  double ms = 0.0;
  double speedup = 0.0;  // vs the 1-thread split run
};

Dfg subtree_demo_graph() {
  RandomDagConfig cfg;
  cfg.num_ops = 140;
  cfg.num_inputs = 6;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.05;
  cfg.seed = 140 * 1337;  // the fig8 synthetic-tail family
  return random_dag(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_identification.json";
  std::string baseline_path;
  bool gate_wall = false;
  double target_ms = 300.0;
  int split_depth = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(3);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--baseline") {
      baseline_path = value();
    } else if (arg == "--gate-wall") {
      gate_wall = true;
    } else if (arg == "--target-ms") {
      target_ms = std::stod(value());
    } else if (arg == "--split") {
      split_depth = std::stoi(value());
    } else {
      std::cerr << "usage: identification_scaling [--json FILE] [--baseline FILE]\n"
                   "         [--gate-wall] [--target-ms MS] [--split DEPTH]\n";
      return arg == "--help" ? 0 : 3;
    }
  }

  Constraints cons;  // the fig8 sweep configuration: Nin=4 / Nout=2, pruning on
  cons.max_inputs = 4;
  cons.max_outputs = 2;

  const auto reference = [&](const Dfg& g) {
    return find_best_cut_reference(g, LatencyModel::standard_018um(), cons);
  };
  const auto engine = [&](const Dfg& g) {
    return find_best_cut(g, LatencyModel::standard_018um(), cons);
  };

  const auto add_row = [](TextTable& table, const WorkloadRow& row) {
    table.add_row({row.name, TextTable::num(static_cast<std::uint64_t>(row.blocks)),
                   TextTable::num(row.cuts_considered), TextTable::num(row.reference_ms, 3),
                   TextTable::num(row.engine_ms, 3), TextTable::num(row.speedup_vs_reference, 2),
                   TextTable::num(row.engine_cuts_per_sec, 0)});
  };
  const auto blocks_of = [](const char* name) {
    Workload w = find_workload(name);
    w.preprocess();
    return w.extract_dfgs();
  };

  std::cout << "=== identification engine: word-parallel vs reference (Nin=4, Nout=2) ===\n\n";
  TextTable table({"workload", "blocks", "cuts considered", "reference ms", "engine ms",
                   "speedup", "engine cuts/sec"});
  std::vector<WorkloadRow> rows;
  for (const char* name : {"crc32", "adpcmdecode"}) {
    const std::vector<Dfg> blocks = blocks_of(name);
    WorkloadRow row;
    row.blocks = static_cast<int>(blocks.size());
    if (!measure(name, blocks, reference, engine, target_ms, row)) return 2;
    add_row(table, row);
    rows.push_back(row);
  }
  table.print(std::cout);

  // --- multiple-cut engine on Fig. 11's Optimal setting ---------------------
  // The searches the Optimal scheme starts with on every block: one to three
  // cuts, with Fig. 11's result-preserving accelerations and its per-search
  // budget. The larger adpcm searches end on the budget, so their cut counts
  // (and partial bests) pin the visitation order too.
  Constraints multi_cons = cons;
  multi_cons.branch_and_bound = true;
  multi_cons.prune_permanent_inputs = true;
  multi_cons.search_budget = 1'000'000;
  const std::vector<int> multi_cuts = {1, 2, 3};
  const auto multi_reference = [&](const MultiCutSearch& s) {
    return find_best_cuts_reference(*s.block, LatencyModel::standard_018um(), multi_cons,
                                    s.num_cuts);
  };
  const auto multi_engine = [&](const MultiCutSearch& s) {
    return find_best_cuts(*s.block, LatencyModel::standard_018um(), multi_cons, s.num_cuts);
  };
  std::cout << "\n=== multiple-cut engine: word-parallel vs reference (Nin=4, Nout=2, "
               "branch-and-bound, permanent-input pruning, budget 1M, 1-3 cuts) "
               "===\n\n";
  TextTable multi_table({"workload", "blocks", "cuts considered", "reference ms",
                         "engine ms", "speedup", "engine cuts/sec"});
  std::vector<WorkloadRow> multi_rows;
  for (const char* name : {"adpcmdecode", "adpcmencode", "g721"}) {
    const std::vector<Dfg> blocks = blocks_of(name);
    std::vector<MultiCutSearch> searches;
    for (const Dfg& g : blocks) {
      for (const int m : multi_cuts) searches.push_back({&g, m});
    }
    WorkloadRow row;
    row.blocks = static_cast<int>(blocks.size());
    row.searches = static_cast<int>(searches.size());
    if (!measure(name, searches, multi_reference, multi_engine, target_ms, row)) return 2;
    add_row(multi_table, row);
    multi_rows.push_back(row);
  }
  multi_table.print(std::cout);

  // --- subtree-parallel scaling on one large synthetic block ---------------
  // A wider 6-in/3-out window keeps the tree large (~20M cuts) so the task
  // fan-out has something to chew on. Observed speedups are bounded by the
  // machine: hardware_concurrency lands in the JSON next to them.
  Constraints big_cons;
  big_cons.max_inputs = 6;
  big_cons.max_outputs = 3;
  const Dfg big = subtree_demo_graph();
  const std::vector<Dfg> big_blocks = {big};  // reuse the sweep helpers
  const SingleCutResult big_serial =
      find_best_cut(big, LatencyModel::standard_018um(), big_cons);
  std::cout << "\n=== subtree-parallel scaling (" << big.name() << ", "
            << big.candidates().size() << " candidates, split depth " << split_depth
            << ", " << TextTable::num(big_serial.stats.cuts_considered)
            << " cuts) ===\n\n";
  TextTable scaling({"threads", "tasks", "wall ms", "speedup vs 1 thread"});
  std::vector<ThreadRow> thread_rows;
  double one_thread_ms = 0.0;
  std::uint64_t donated_tasks = 0;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    SearchEngineStats engine_stats;
    SingleCutResult split_result =
        find_best_cut(big, LatencyModel::standard_018um(), big_cons,
                      CutSearchOptions{
                          .executor = &pool, .split_depth = split_depth, .stats = &engine_stats});
    if (!same_result(split_result, big_serial)) {
      std::cerr << "ENGINE MISMATCH: subtree-parallel result diverged at " << threads
                << " threads\n";
      return 2;
    }
    // Donation reads only each task's own cut count, so the task set is the
    // same for every thread count and schedule.
    const std::uint64_t tasks = engine_stats.subtree_tasks.load();
    if (!thread_rows.empty() && tasks != thread_rows.front().tasks) {
      std::cerr << "ENGINE MISMATCH: " << tasks << " subtree tasks at " << threads
                << " threads, " << thread_rows.front().tasks << " at 1 thread\n";
      return 2;
    }
    const auto split_engine = [&](const Dfg& g) {
      return find_best_cut(g, LatencyModel::standard_018um(), big_cons,
                           CutSearchOptions{.executor = &pool, .split_depth = split_depth});
    };
    ThreadRow row;
    row.threads = threads;
    row.tasks = tasks;
    donated_tasks = engine_stats.donated_tasks.load();
    row.ms = time_sweep(big_blocks, split_engine, target_ms);
    if (threads == 1) one_thread_ms = row.ms;
    row.speedup = one_thread_ms / row.ms;
    scaling.add_row({TextTable::num(static_cast<std::uint64_t>(row.threads)),
                     TextTable::num(row.tasks), TextTable::num(row.ms, 3),
                     TextTable::num(row.speedup, 2)});
    thread_rows.push_back(row);
  }
  scaling.print(std::cout);

  // --- JSON report ----------------------------------------------------------
  Json report = Json::object();
  report.set("schema", 1);
  report.set("hardware_concurrency",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  {
    Json c = Json::object();
    c.set("max_inputs", cons.max_inputs);
    c.set("max_outputs", cons.max_outputs);
    report.set("constraints", std::move(c));
  }
  Json workloads = Json::array();
  for (const WorkloadRow& row : rows) workloads.push_back(row_json(row));
  report.set("workloads", std::move(workloads));
  {
    Json m = Json::object();
    Json c = Json::object();
    c.set("max_inputs", multi_cons.max_inputs);
    c.set("max_outputs", multi_cons.max_outputs);
    c.set("branch_and_bound", multi_cons.branch_and_bound);
    c.set("prune_permanent_inputs", multi_cons.prune_permanent_inputs);
    c.set("search_budget", multi_cons.search_budget);
    Json cuts = Json::array();
    for (const int k : multi_cuts) cuts.push_back(k);
    c.set("num_cuts", std::move(cuts));
    m.set("constraints", std::move(c));
    Json multi_workloads = Json::array();
    for (const WorkloadRow& row : multi_rows) multi_workloads.push_back(row_json(row));
    m.set("workloads", std::move(multi_workloads));
    report.set("multi_cut", std::move(m));
  }
  {
    Json s = Json::object();
    s.set("graph", big.name());
    s.set("candidates", static_cast<std::int64_t>(big.candidates().size()));
    s.set("cuts_considered", big_serial.stats.cuts_considered);
    s.set("split_depth", split_depth);
    s.set("subtree_tasks", thread_rows.front().tasks);
    s.set("donated_tasks", donated_tasks);
    Json threads = Json::array();
    for (const ThreadRow& row : thread_rows) {
      Json r = Json::object();
      r.set("threads", row.threads);
      r.set("ms", row.ms);
      r.set("speedup", row.speedup);
      threads.push_back(std::move(r));
    }
    s.set("threads", std::move(threads));
    report.set("subtree", std::move(s));
  }

  // --- baseline comparison + gate -------------------------------------------
  bool gate_failed = false;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in.good()) {
      std::cerr << "cannot read baseline '" << baseline_path << "'\n";
      return 3;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const Json baseline = Json::parse(text.str());
    Json comparison = Json::array();
    std::cout << "\n=== baseline comparison (" << baseline_path << ") ===\n\n";
    // Single-cut rows gate against the baseline's top-level workloads,
    // multi-cut rows against its multi_cut section. False if the baseline
    // lacks a row.
    const auto compare = [&](const Json* section, const std::vector<WorkloadRow>& rows,
                             const std::string& prefix) {
      for (const WorkloadRow& row : rows) {
        const std::string label = prefix + row.name;
        const Json* base_row = nullptr;
        if (section != nullptr) {
          for (const Json& b : section->at("workloads").as_array()) {
            if (b.at("name").as_string() == row.name) base_row = &b;
          }
        }
        if (base_row == nullptr) {
          std::cerr << "baseline has no entry for " << label << "\n";
          return false;
        }
        const double base_cuts =
            static_cast<double>(base_row->at("cuts_considered").as_uint());
        const double base_rate = base_row->at("engine_cuts_per_sec").as_double();
        const double counter_drift =
            std::abs(static_cast<double>(row.cuts_considered) - base_cuts) / base_cuts;
        const double rate_ratio = row.engine_cuts_per_sec / base_rate;
        // Deterministic gate: the searched tree itself must not regress.
        const bool counters_ok = counter_drift <= 0.25;
        // Advisory unless --gate-wall: wall clock varies across machines.
        const bool rate_ok = rate_ratio >= 0.75;
        std::cout << label << ": counters drift "
                  << TextTable::num(counter_drift * 100.0, 2) << "% ("
                  << (counters_ok ? "ok" : "FAIL") << "), cuts/sec ratio "
                  << TextTable::num(rate_ratio, 2) << "x ("
                  << (rate_ok ? "ok" : (gate_wall ? "FAIL" : "advisory")) << ")\n";
        if (!counters_ok || (gate_wall && !rate_ok)) gate_failed = true;
        Json c = Json::object();
        c.set("name", label);
        c.set("baseline_cuts_considered", base_row->at("cuts_considered").as_uint());
        c.set("baseline_cuts_per_sec", base_rate);
        c.set("counters_drift", counter_drift);
        c.set("cuts_per_sec_ratio", rate_ratio);
        comparison.push_back(std::move(c));
      }
      return true;
    };
    if (!compare(&baseline, rows, "") ||
        !compare(baseline.find("multi_cut"), multi_rows, "multi_cut ")) {
      return 3;
    }
    // The subtree task count is deterministic as well, but only comparable
    // at the split depth the baseline was recorded with.
    const Json* base_subtree = baseline.find("subtree");
    if (base_subtree == nullptr || base_subtree->find("subtree_tasks") == nullptr) {
      std::cerr << "baseline has no entry for subtree tasks\n";
      return 3;
    }
    const int base_depth = static_cast<int>(base_subtree->at("split_depth").as_int());
    if (base_depth == split_depth) {
      const std::uint64_t base_tasks = base_subtree->at("subtree_tasks").as_uint();
      const double drift =
          std::abs(static_cast<double>(thread_rows.front().tasks) -
                   static_cast<double>(base_tasks)) /
          static_cast<double>(base_tasks);
      const bool tasks_ok = drift <= 0.25;
      std::cout << "subtree tasks: counters drift " << TextTable::num(drift * 100.0, 2)
                << "% (" << (tasks_ok ? "ok" : "FAIL") << ")\n";
      if (!tasks_ok) gate_failed = true;
      Json c = Json::object();
      c.set("name", "subtree tasks");
      c.set("baseline_subtree_tasks", base_tasks);
      c.set("counters_drift", drift);
      comparison.push_back(std::move(c));
    } else {
      std::cout << "subtree tasks: baseline recorded at split depth " << base_depth
                << ", not gated\n";
    }
    report.set("baseline_comparison", std::move(comparison));
  }

  std::ofstream out(json_path);
  out << report.dump(2) << "\n";
  if (!out.good()) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 3;
  }
  std::cout << "\nwrote " << json_path << "\n";
  if (gate_failed) {
    std::cerr << "REGRESSION GATE FAILED (>25% drift vs baseline)\n";
    return 1;
  }
  return 0;
}
