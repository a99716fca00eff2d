// Identification-engine throughput bench with a tracked baseline.
//
// Sweeps the fig8 search-space workloads (crc32, adpcmdecode) under the
// paper's 4-in/2-out configuration through BOTH engines — the word-parallel
// production engine (find_best_cut) and the retained pre-rebuild reference
// (find_best_cut_reference) — asserting byte-identical results, then
// measures subtree-parallel scaling on a large synthetic block. Emits a
// machine-readable BENCH_identification.json with cuts/sec, wall ms and
// speedups.
//
// Regression gating (--baseline FILE, e.g. bench/baselines/
// BENCH_identification.json): the *deterministic* gate compares the
// search-stats counters (cuts_considered per workload) against the recorded
// baseline and fails on >25% drift — counters are exact across machines, so
// CI stays deterministic. Wall-clock throughput (cuts/sec vs the baseline's)
// is always reported but only enforced with --gate-wall, for local runs on
// the machine that recorded the baseline.
//
// Exit codes: 0 ok, 1 regression gate failed, 2 engines disagreed (never
// acceptable), 3 usage/IO error.
#include <chrono>
#include <thread>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

/// One full pass over `blocks` with the given engine; returns summed
/// cuts_considered (and optionally the per-block results for comparison).
template <typename Fn>
std::uint64_t sweep(const std::vector<Dfg>& blocks, const Fn& engine,
                    std::vector<SingleCutResult>* out = nullptr) {
  std::uint64_t cuts = 0;
  for (const Dfg& g : blocks) {
    SingleCutResult r = engine(g);
    cuts += r.stats.cuts_considered;
    if (out != nullptr) out->push_back(std::move(r));
  }
  return cuts;
}

/// Wall milliseconds per sweep, calibrated so the timed region runs at
/// least `target_ms` (counters stay exact regardless of repetitions).
template <typename Fn>
double time_sweep(const std::vector<Dfg>& blocks, const Fn& engine, double target_ms) {
  const auto probe = Clock::now();
  sweep(blocks, engine);
  const double once = std::max(ms_since(probe), 1e-3);
  const int reps = std::max(3, static_cast<int>(std::ceil(target_ms / once)));
  const auto start = Clock::now();
  for (int r = 0; r < reps; ++r) sweep(blocks, engine);
  return ms_since(start) / reps;
}

bool same_result(const SingleCutResult& a, const SingleCutResult& b) {
  return a.cut == b.cut && a.merit == b.merit &&
         a.stats.cuts_considered == b.stats.cuts_considered &&
         a.stats.passed_checks == b.stats.passed_checks &&
         a.stats.failed_output == b.stats.failed_output &&
         a.stats.failed_convex == b.stats.failed_convex &&
         a.stats.pruned_inputs == b.stats.pruned_inputs &&
         a.stats.pruned_bound == b.stats.pruned_bound &&
         a.stats.best_updates == b.stats.best_updates &&
         a.stats.budget_exhausted == b.stats.budget_exhausted;
}

struct WorkloadRow {
  std::string name;
  int blocks = 0;
  std::uint64_t cuts_considered = 0;
  double reference_ms = 0.0;
  double engine_ms = 0.0;
  double engine_cuts_per_sec = 0.0;
  double speedup_vs_reference = 0.0;
};

struct ThreadRow {
  int threads = 0;
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

  std::cout << "=== identification engine: word-parallel vs reference (Nin=4, Nout=2) ===\n\n";
  TextTable table({"workload", "blocks", "cuts considered", "reference ms", "engine ms",
                   "speedup", "engine cuts/sec"});
  std::vector<WorkloadRow> rows;
  for (const char* name : {"crc32", "adpcmdecode"}) {
    Workload w = find_workload(name);
    w.preprocess();
    const std::vector<Dfg> blocks = w.extract_dfgs();

    std::vector<SingleCutResult> ref_results, eng_results;
    const std::uint64_t ref_cuts = sweep(blocks, reference, &ref_results);
    const std::uint64_t eng_cuts = sweep(blocks, engine, &eng_results);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (!same_result(ref_results[b], eng_results[b]) || ref_cuts != eng_cuts) {
        std::cerr << "ENGINE MISMATCH on " << name << " block " << b
                  << " — the word-parallel engine must be byte-identical to the "
                     "reference\n";
        return 2;
      }
    }

    WorkloadRow row;
    row.name = name;
    row.blocks = static_cast<int>(blocks.size());
    row.cuts_considered = eng_cuts;
    row.reference_ms = time_sweep(blocks, reference, target_ms);
    row.engine_ms = time_sweep(blocks, engine, target_ms);
    row.engine_cuts_per_sec = static_cast<double>(eng_cuts) / (row.engine_ms / 1000.0);
    row.speedup_vs_reference = row.reference_ms / row.engine_ms;
    table.add_row({row.name, TextTable::num(static_cast<std::uint64_t>(row.blocks)),
                   TextTable::num(row.cuts_considered), TextTable::num(row.reference_ms, 3),
                   TextTable::num(row.engine_ms, 3), TextTable::num(row.speedup_vs_reference, 2),
                   TextTable::num(row.engine_cuts_per_sec, 0)});
    rows.push_back(row);
  }
  table.print(std::cout);

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
  TextTable scaling({"threads", "wall ms", "speedup vs 1 thread"});
  std::vector<ThreadRow> thread_rows;
  double one_thread_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    SingleCutResult split_result =
        find_best_cut(big, LatencyModel::standard_018um(), big_cons,
                      CutSearchOptions{&pool, split_depth, nullptr});
    if (!same_result(split_result, big_serial)) {
      std::cerr << "ENGINE MISMATCH: subtree-parallel result diverged at " << threads
                << " threads\n";
      return 2;
    }
    const auto split_engine = [&](const Dfg& g) {
      return find_best_cut(g, LatencyModel::standard_018um(), big_cons,
                           CutSearchOptions{&pool, split_depth, nullptr});
    };
    ThreadRow row;
    row.threads = threads;
    row.ms = time_sweep(big_blocks, split_engine, target_ms);
    if (threads == 1) one_thread_ms = row.ms;
    row.speedup = one_thread_ms / row.ms;
    scaling.add_row({TextTable::num(static_cast<std::uint64_t>(row.threads)),
                     TextTable::num(row.ms, 3), TextTable::num(row.speedup, 2)});
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
  for (const WorkloadRow& row : rows) {
    Json r = Json::object();
    r.set("name", row.name);
    r.set("blocks", row.blocks);
    r.set("cuts_considered", row.cuts_considered);
    r.set("reference_ms", row.reference_ms);
    r.set("engine_ms", row.engine_ms);
    r.set("engine_cuts_per_sec", row.engine_cuts_per_sec);
    r.set("speedup_vs_reference", row.speedup_vs_reference);
    workloads.push_back(std::move(r));
  }
  report.set("workloads", std::move(workloads));
  {
    Json s = Json::object();
    s.set("graph", big.name());
    s.set("candidates", static_cast<std::int64_t>(big.candidates().size()));
    s.set("cuts_considered", big_serial.stats.cuts_considered);
    s.set("split_depth", split_depth);
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
    for (const WorkloadRow& row : rows) {
      const Json* base_row = nullptr;
      for (const Json& b : baseline.at("workloads").as_array()) {
        if (b.at("name").as_string() == row.name) base_row = &b;
      }
      if (base_row == nullptr) {
        std::cerr << "baseline has no entry for " << row.name << "\n";
        return 3;
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
      std::cout << row.name << ": counters drift "
                << TextTable::num(counter_drift * 100.0, 2) << "% ("
                << (counters_ok ? "ok" : "FAIL") << "), cuts/sec ratio "
                << TextTable::num(rate_ratio, 2) << "x ("
                << (rate_ok ? "ok" : (gate_wall ? "FAIL" : "advisory")) << ")\n";
      if (!counters_ok || (gate_wall && !rate_ok)) gate_failed = true;
      Json c = Json::object();
      c.set("name", row.name);
      c.set("baseline_cuts_considered", base_row->at("cuts_considered").as_uint());
      c.set("baseline_cuts_per_sec", base_rate);
      c.set("counters_drift", counter_drift);
      c.set("cuts_per_sec_ratio", rate_ratio);
      comparison.push_back(std::move(c));
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
