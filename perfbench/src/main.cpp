// isex_perfbench — the exploration pipeline's end-to-end benchmark.
//
//   isex_perfbench --workload serve_hot|serve_ir_large|explore_cold --seed N
//                  --seconds S --trace 0|1 --isexd PATH [--out-dir DIR]
//                  [--git-commit SHA] [--corrupt-pin]
//
// Every input (request lists, client sequences, the generated kernel pool)
// derives from --seed. Every report is checked against a digest pinned from
// an in-process run before it counts. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
// traced replay (whose Chrome trace-event file lands in --out-dir). See
// perfbench/README.md for the workloads and how to read the numbers.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>

#include "dfg/random_dag.hpp"
#include "harness.hpp"
#include "replay.hpp"
#include "service/protocol.hpp"
#include "text/corpus_gen.hpp"
#include "text/workload_file.hpp"
#include "workloads/util.hpp"

namespace perfbench {
namespace {

using isex::ExplorationReport;
using isex::ExplorationRequest;
using isex::Explorer;
using isex::Json;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string isexd;
  std::string out_dir = ".bench_build/run";
  std::string git_commit = "unknown";
  bool corrupt_pin = false;
};

// The paper's Fig. 11 Nin/Nout grid.
const std::vector<std::pair<int, int>> kGrid = {{2, 1}, {3, 1}, {4, 1}, {2, 2}, {4, 2}, {8, 4}};
// Kernels in serve_ir_large's pool: fewer than the daemon's extraction-cache
// capacity (32), so after set-up every request hits it and the served cost
// is the text load the report's clock does not see. Kernels of equal op
// count still differ in load cost by up to 2x, so the pool is as large as
// that capacity allows, to keep the pool's mean cost alike across seeds.
constexpr int kPoolKernels = 30;
constexpr int kPoolOps = 4096;
// Instances of the synthetic-block request per explore_cold pass. With five
// of 41 requests, class (c) takes a little longer than class (a), and p50
// and p90 of a pass fall on one request each (g721 3/1 Optimal, the fastest
// synthetic-block run) instead of between two request classes.
constexpr int kRandomRequests = 5;
// Daemon workers. serve_ir_large uses as many connections, so its requests
// do not queue behind each other: with four clients on two workers and
// near-equal service times, latency is bimodal (served at once or after one
// full service) and p50 jumps between the modes from run to run.
constexpr int kDaemonWorkers = 2;
constexpr int kSetupRounds = 3;
constexpr std::size_t kSequenceLength = 4096;

/// splitmix64: a portable seeded stream (the standard distributions are
/// implementation-defined, so inputs would differ between standard libraries).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

std::vector<int> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  Rng rng{seed};
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? std::max(1, CPU_COUNT(&set)) : 1;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The inputs of one workload, all derived from the seed.
struct Inputs {
  std::vector<ExplorationRequest> requests;
  std::vector<const KernelDoc*> doc_of;  // per request; null for registry/graphs
  std::vector<KernelDoc> docs;           // serve_ir_large's kernel pool
  std::vector<std::vector<int>> sequences;  // serve_*: one per client
  // serve_*: requests a fresh daemon is warmed with, and their pinned
  // digests (the cache state evolves, so these differ from the warm pins).
  std::vector<int> warmup_order;
  std::vector<std::uint64_t> warmup_pins;
  // Digest of each request's report from the state the measurement runs in.
  std::vector<std::uint64_t> pins;
  // In-process explorer holding that state (serve_*: warm cache).
  std::unique_ptr<Explorer> explorer;
};

ExplorationRequest grid_request(int nin, int nout) {
  ExplorationRequest r;
  r.constraints.max_inputs = nin;
  r.constraints.max_outputs = nout;
  return r;
}

std::vector<std::vector<int>> client_sequences(std::size_t universe, int clients,
                                               std::uint64_t seed) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    Rng rng{seed * 1000003ULL + static_cast<std::uint64_t>(c)};
    for (std::size_t k = 0; k < kSequenceLength; ++k) {
      out[static_cast<std::size_t>(c)].push_back(static_cast<int>(rng.below(universe)));
    }
  }
  return out;
}

std::uint64_t digest_of(const ExplorationReport& report) { return report_digest(report.to_json()); }

/// serve_hot: the 12 registry kernels x {iterative, area, clubbing, maxmiso}
/// x the Fig. 11 grid. Pins come from an in-process explorer that goes
/// through the same cold warm-up pass as the daemon, then a warm pass.
Inputs make_serve_hot(std::uint64_t seed, int clients) {
  Inputs in;
  for (const std::string& name : isex::workload_names()) {
    for (const char* scheme : {"iterative", "area", "clubbing", "maxmiso"}) {
      for (const auto& [nin, nout] : kGrid) {
        ExplorationRequest r = grid_request(nin, nout);
        r.workload = name;
        r.scheme = scheme;
        in.requests.push_back(std::move(r));
      }
    }
  }
  in.doc_of.assign(in.requests.size(), nullptr);
  in.sequences = client_sequences(in.requests.size(), clients, seed);
  in.warmup_order = shuffled(in.requests.size(), seed ^ 0x5eed);
  in.explorer = std::make_unique<Explorer>();
  for (const int i : in.warmup_order) {
    in.warmup_pins.push_back(digest_of(in.explorer->run(in.requests[static_cast<std::size_t>(i)])));
  }
  for (const ExplorationRequest& r : in.requests) in.pins.push_back(digest_of(in.explorer->run(r)));
  return in;
}

/// serve_ir_large: a seeded pool of equal-size generated kernels, each sent
/// as protocol-v2 `ir_text` under clubbing and maxmiso on the Fig. 11 grid.
Inputs make_serve_ir_large(std::uint64_t seed, int clients) {
  Inputs in;
  in.docs.resize(kPoolKernels);
  for (int k = 0; k < kPoolKernels; ++k) {
    isex::CorpusGenConfig config;
    config.seed = seed * 1000 + static_cast<std::uint64_t>(k) + 1;
    config.num_ops = kPoolOps;
    const isex::Workload w = isex::generate_workload(config);
    KernelDoc& doc = in.docs[static_cast<std::size_t>(k)];
    doc.text = isex::dump_workload(w);
    doc.module_offset = doc.text.find("\nmodule ") + 1;
    doc.name = w.name();
    doc.entry = w.entry_name();
    doc.args = w.args();
    const auto* reader = w.read_outputs().target<isex::SegmentReader>();
    ISEX_CHECK(reader != nullptr && doc.module_offset > 0,
               "generated kernel has no output segment or module line");
    doc.output_segment = reader->segment;
    doc.output_count = reader->count;
  }
  for (const KernelDoc& doc : in.docs) {
    for (const char* scheme : {"clubbing", "maxmiso"}) {
      for (const auto& [nin, nout] : kGrid) {
        ExplorationRequest r = grid_request(nin, nout);
        r.ir_text = doc.text;
        r.scheme = scheme;
        in.requests.push_back(std::move(r));
        in.doc_of.push_back(&doc);
      }
    }
  }
  in.sequences = client_sequences(in.requests.size(), clients, seed);
  // One warm-up request per kernel fills the daemon's extraction cache.
  const std::size_t per_kernel = in.requests.size() / in.docs.size();
  in.explorer = std::make_unique<Explorer>();
  in.pins.resize(in.requests.size());
  for (std::size_t k = 0; k < in.docs.size(); ++k) {
    // Loaded once per kernel: the report of run(workload) equals that of an
    // ir_text request, which loads the same document.
    isex::Workload w = isex::load_workload_string(in.docs[k].text);
    const std::size_t first = k * per_kernel;
    in.warmup_order.push_back(static_cast<int>(first));
    in.warmup_pins.push_back(digest_of(in.explorer->run(w, in.requests[first])));
    for (std::size_t j = first; j < first + per_kernel; ++j) {
      in.pins[j] = digest_of(in.explorer->run(w, in.requests[j]));
    }
  }
  return in;
}

/// explore_cold: in-process, uncached. (a) Optimal on the Fig. 11 kernels
/// and grid with Fig. 11's settings; (b) Iterative on the same with
/// subtree splitting, emission and rewrite verification; (c) Iterative on
/// the large synthetic block at 6/3. Pins come from the first set-up pass.
Inputs make_explore_cold(int threads) {
  Inputs in;
  for (const char* name : {"adpcmdecode", "adpcmencode", "g721"}) {
    for (const auto& [nin, nout] : kGrid) {
      ExplorationRequest r = grid_request(nin, nout);
      r.workload = name;
      r.scheme = "optimal";
      r.use_cache = false;
      r.constraints.branch_and_bound = true;
      r.constraints.prune_permanent_inputs = true;
      r.constraints.search_budget = 1'000'000;
      in.requests.push_back(std::move(r));
    }
  }
  for (const char* name : {"adpcmdecode", "adpcmencode", "g721"}) {
    for (const auto& [nin, nout] : kGrid) {
      ExplorationRequest r = grid_request(nin, nout);
      r.workload = name;
      r.scheme = "iterative";
      r.use_cache = false;
      r.constraints.branch_and_bound = true;
      r.constraints.prune_permanent_inputs = true;
      r.num_threads = threads;
      r.subtree_split_depth = 10;
      r.emission.targets = {"verilog", "c-intrinsics", "manifest"};
      r.emission.verify_rewrites = true;
      in.requests.push_back(std::move(r));
    }
  }
  isex::RandomDagConfig dag;  // random<140,187180>, the Fig. 8 synthetic tail
  dag.num_ops = 140;
  dag.num_inputs = 6;
  dag.avg_fanin = 1.9;
  dag.forbidden_fraction = 0.05;
  dag.seed = 140 * 1337;
  const isex::Dfg block = isex::random_dag(dag);
  for (int i = 0; i < kRandomRequests; ++i) {
    ExplorationRequest r = grid_request(6, 3);
    r.graphs = {block};
    r.scheme = "iterative";
    r.use_cache = false;
    r.num_threads = threads;
    r.subtree_split_depth = 10;
    in.requests.push_back(std::move(r));
  }
  in.doc_of.assign(in.requests.size(), nullptr);
  in.explorer = std::make_unique<Explorer>();
  return in;
}

// --- result printing ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int finish(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& e : tally.errors) std::cout << "FAILED: " << e << "\n";
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << std::string(m.name.size() < 40 ? 40 - m.name.size() : 1, ' ')
              << number(m.value) << " " << m.unit << "\n";
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

// --- set-up ------------------------------------------------------------------

std::string socket_path(const Options& opt, int round) {
  return opt.out_dir + "/isexd-" + std::to_string(getpid()) + "-" + std::to_string(round) + ".sock";
}

/// Starts a fresh daemon and warms it with the set-up pass; returns it
/// running. The set-up time is everything from spawning to warm.
std::unique_ptr<DaemonProcess> setup_daemon(const Options& opt, const Inputs& in, int round,
                                            Tally& tally, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto daemon = std::make_unique<DaemonProcess>(
      opt.isexd, socket_path(opt, round),
      opt.out_dir + "/isexd-" + std::to_string(getpid()) + "-" + std::to_string(round) + ".log",
      kDaemonWorkers);
  daemon->wait_ready();
  tally.merge(replay_sequential(daemon->socket(), in.requests, in.warmup_order, in.warmup_pins));
  *seconds = seconds_since(t0);
  return daemon;
}

/// One in-process pass over explore_cold's requests in `order`. With
/// `record` set it pins each report's digest; otherwise it checks each report
/// and appends the latency of a passing one to (*latencies)[request].
void cold_pass(const Explorer& explorer, const Inputs& in, const std::vector<int>& order,
               std::vector<std::uint64_t>* record, Tally* tally,
               std::vector<std::vector<double>>* latencies) {
  for (const int i : order) {
    const std::size_t r = static_cast<std::size_t>(i);
    const Clock::time_point t0 = Clock::now();
    const ExplorationReport report = explorer.run(in.requests[r]);
    const Json json = report.to_json();
    const std::string dumped = json.dump();
    const double ms = ms_between(t0, Clock::now());
    if (record != nullptr) {
      (*record)[r] = report_digest(json);
      continue;
    }
    std::string why;
    const bool ok = report_ok(json, in.pins[r], &why);
    tally->record(ok, why);
    if (ok && latencies != nullptr) (*latencies)[r].push_back(ms);
  }
}

// --- untraced run: end-to-end metrics ----------------------------------------

struct Summary {
  double throughput_rps = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double cpu_ms_per_request = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t completed = 0;
};

int run_untraced(const Options& opt, Inputs& in) {
  Tally tally;
  std::vector<double> setup_s;
  Summary sum;
  if (opt.workload == "explore_cold") {
    // Set-up: a fresh explorer and one full pass, three times; the first
    // pass pins every report, the others are checked against it.
    in.pins.assign(in.requests.size(), 0);
    for (int round = 0; round < kSetupRounds; ++round) {
      const Clock::time_point t0 = Clock::now();
      in.explorer = std::make_unique<Explorer>();
      cold_pass(*in.explorer, in, shuffled(in.requests.size(), opt.seed * 31 + round),
                round == 0 ? &in.pins : nullptr, &tally, nullptr);
      setup_s.push_back(seconds_since(t0));
    }
    if (opt.corrupt_pin) in.pins[0] ^= 1;
    // Whole passes only, so every run measures the same request mix. Each
    // request's latency is its median over the passes and the figures are
    // those of that median pass, which shields them from slow stretches of
    // the machine that hit one pass.
    const double n = static_cast<double>(in.requests.size());
    std::vector<std::vector<double>> lat(in.requests.size());
    std::vector<double> pass_cpu;
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; seconds_since(t0) < opt.seconds; ++pass) {
      const double cpu0 = proc_usage(0).cpu_ms;
      cold_pass(*in.explorer, in, shuffled(in.requests.size(), opt.seed * 131 + pass), nullptr,
                &tally, &lat);
      pass_cpu.push_back((proc_usage(0).cpu_ms - cpu0) / n);
    }
    std::vector<double> med;
    for (const std::vector<double>& l : lat) {
      if (!l.empty()) med.push_back(percentile(l, 0.5));
      sum.completed += l.size();
    }
    double pass_ms = 0.0;
    for (const double m : med) pass_ms += m;
    std::cout << pass_cpu.size() << " passes of " << in.requests.size()
              << " requests; the median pass takes " << number(pass_ms / 1e3) << " s\n";
    sum.throughput_rps = static_cast<double>(med.size()) / (pass_ms / 1e3);
    sum.p50 = percentile(med, 0.50);
    sum.p90 = percentile(med, 0.90);
    sum.p99 = percentile(med, 0.99);
    sum.cpu_ms_per_request = percentile(pass_cpu, 0.5);
    sum.peak_rss_mb = proc_usage(0).peak_rss_mb;
  } else {
    std::unique_ptr<DaemonProcess> daemon;
    for (int round = 0; round < kSetupRounds; ++round) {
      if (daemon != nullptr) daemon->stop();
      double s = 0.0;
      daemon = setup_daemon(opt, in, round, tally, &s);
      setup_s.push_back(s);
    }
    if (opt.corrupt_pin) in.pins[static_cast<std::size_t>(in.sequences[0][0])] ^= 1;
    const ProcUsage before = proc_usage(daemon->pid());
    const LoopResult loop = run_closed_loop(daemon->socket(), in.requests, in.pins,
                                            in.sequences, opt.seconds, false, Clock::now());
    const ProcUsage after = proc_usage(daemon->pid());
    daemon->stop();
    tally.merge(loop.tally);
    sum.completed = loop.latencies_ms.size();
    const double completed = static_cast<double>(sum.completed);
    sum.throughput_rps = completed / loop.wall_s;
    sum.p50 = percentile(loop.latencies_ms, 0.50);
    sum.p90 = percentile(loop.latencies_ms, 0.90);
    sum.p99 = percentile(loop.latencies_ms, 0.99);
    sum.cpu_ms_per_request = (after.cpu_ms - before.cpu_ms) / std::max(1.0, completed);
    sum.peak_rss_mb = after.peak_rss_mb;
    std::cout << "samples beyond p90/p99: " << sum.completed / 10 << "/" << sum.completed / 100
              << "\n";
    // How steady the machine was: requests completed per one-second window.
    std::vector<double> per_window(static_cast<std::size_t>(opt.seconds), 0.0);
    for (const double t : loop.done_s) {
      if (t < static_cast<double>(per_window.size())) per_window[static_cast<std::size_t>(t)] += 1.0;
    }
    std::cout << "requests per one-second window: min " << number(percentile(per_window, 0))
              << ", median " << number(percentile(per_window, 0.5)) << ", max "
              << number(percentile(per_window, 1)) << "\n";
  }
  std::cout << "requests completed " << sum.completed << "\n";
  std::cout << "set-up rounds (s):";
  for (const double s : setup_s) std::cout << " " << number(s);
  std::cout << "\nerror_rate " << number(tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                                                   static_cast<double>(tally.attempted)
                                                             : 0.0)
            << " (" << tally.failed << " of " << tally.attempted << " checked operations)\n";
  return finish(tally, {
                           {"throughput_rps", sum.throughput_rps, "1/s"},
                           {"latency_p50_ms", sum.p50, "ms"},
                           {"latency_p90_ms", sum.p90, "ms"},
                           {"latency_p99_ms", sum.p99, "ms"},
                           {"cpu_ms_per_request", sum.cpu_ms_per_request, "ms"},
                           {"peak_rss_mb", sum.peak_rss_mb, "MB"},
                           {"setup_s", percentile(setup_s, 0.5), "s"},
                       });
}

// --- traced run: per-layer metrics -------------------------------------------

int run_traced(const Options& opt, Inputs& in) {
  const Clock::time_point origin = Clock::now();
  Tally tally;
  std::vector<int> replay;
  std::unique_ptr<LoopResult> loop;
  const bool serve = opt.workload != "explore_cold";
  const int threads = std::min(4, usable_cpus());
  if (serve) {
    double s = 0.0;
    std::unique_ptr<DaemonProcess> daemon = setup_daemon(opt, in, 0, tally, &s);
    loop = std::make_unique<LoopResult>(run_closed_loop(
        daemon->socket(), in.requests, in.pins, in.sequences, opt.seconds, true, origin));
    daemon->stop();
    tally.merge(loop->tally);
    const std::size_t n = opt.workload == "serve_hot" ? in.requests.size() : 24;
    replay.assign(in.sequences[0].begin(), in.sequences[0].begin() + static_cast<long>(n));
  } else {
    in.pins.assign(in.requests.size(), 0);
    cold_pass(*in.explorer, in, shuffled(in.requests.size(), opt.seed * 31), &in.pins, &tally,
              nullptr);
    replay = shuffled(in.requests.size(), opt.seed * 131);
  }

  // Each request runs twice: through the untraced library path, then through
  // the traced replay; the gap between the two is the tracing overhead.
  double untraced_ms = 0.0;
  Tracer tracer(origin);
  std::vector<ReplayFacts> facts(replay.size());
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const std::size_t i = static_cast<std::size_t>(replay[k]);
    std::string line;
    if (serve) {
      isex::RequestFrame frame;
      frame.id = "r";
      frame.type = "explore";
      frame.single = in.requests[i];
      line = isex::dump_request_frame(frame);
    }
    const Clock::time_point t0 = Clock::now();
    ExplorationRequest decoded;
    if (serve) decoded = *isex::parse_request_frame(line).single;
    const Json untraced = in.explorer->run(serve ? decoded : in.requests[i]).to_json();
    untraced.dump();
    untraced_ms += ms_between(t0, Clock::now());
    std::string why;
    tally.record(report_ok(untraced, in.pins[i], &why), why);

    const Json traced = replay_request(*in.explorer, in.requests[i], in.doc_of[i], serve,
                                       &tracer, static_cast<std::int64_t>(k), &facts[k]);
    const bool ok = report_ok(traced, in.pins[i], &why);
    tally.record(ok, "traced replay: " + why);
  }

  // Subtree speedup: the synthetic-block search at N threads vs 1.
  double subtree_speedup = 0.0;
  if (!serve) {
    ExplorationRequest r = in.requests.back();
    const Clock::time_point t0 = Clock::now();
    const ExplorationReport parallel = in.explorer->run(r);
    const double parallel_ms = ms_between(t0, Clock::now());
    r.num_threads = 1;
    const Clock::time_point t1 = Clock::now();
    const ExplorationReport serial = in.explorer->run(r);
    const double serial_ms = ms_between(t1, Clock::now());
    subtree_speedup = serial_ms / parallel_ms;
    const bool same = serial.stats.cuts_considered == parallel.stats.cuts_considered &&
                      serial.total_merit == parallel.total_merit;
    tally.record(same, "subtree search differs between 1 and " + std::to_string(threads) +
                           " threads");
  }

  // --- aggregate ---------------------------------------------------------------
  const double n = static_cast<double>(replay.size());
  const std::map<std::string, double> self = tracer.self_ms_by_name();
  double traced_ms = 0.0;
  double load_ms = 0.0;  // text.load including its children
  for (const Span& s : tracer.spans()) {
    if (s.name == "request") traced_ms += ms_between(s.start, s.end);
    if (s.name == "text.load") load_ms += ms_between(s.start, s.end);
  }
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto per_request = [&](const char* name) { return self_of(name) / n; };
  double single_cuts = 0.0, multi_cuts = 0.0, multi_requests = 0.0, exhausted = 0.0;
  double tasks = 0.0, serial_searches = 0.0, text_bytes = 0.0;
  double emitting = 0.0, artifact_bytes = 0.0;
  std::vector<double> nodes, report_bytes;
  for (const ReplayFacts& f : facts) {
    if (f.engine != nullptr && std::strcmp(f.engine, "core.single_cut") == 0) {
      single_cuts += static_cast<double>(f.cuts);
    }
    if (f.engine != nullptr && std::strcmp(f.engine, "core.multi_cut") == 0) {
      multi_cuts += static_cast<double>(f.cuts);
      multi_requests += 1.0;
      exhausted += f.budget_exhausted ? 1.0 : 0.0;
    }
    tasks += static_cast<double>(f.subtree_tasks);
    serial_searches += static_cast<double>(f.serial_searches);
    text_bytes += f.module_text_bytes;
    if (f.artifact_bytes > 0) {
      emitting += 1.0;
      artifact_bytes += f.artifact_bytes;
    }
    nodes.push_back(f.dfg_nodes);
    report_bytes.push_back(f.report_bytes);
  }
  std::vector<double> s2a, a2e, s2r, batch, depth, req_bytes, rep_bytes;
  double deduped = 0.0;
  isex::CacheCounters cache;  // as the daemon served it (explore_cold runs uncached)
  if (loop != nullptr) {
    for (const PhaseSample& p : loop->phases) {
      s2a.push_back(p.send_to_accepted_ms);
      a2e.push_back(p.accepted_to_extracted_ms);
      s2r.push_back(p.selected_to_report_ms);
      batch.push_back(p.batch_size);
      depth.push_back(p.queue_depth);
      req_bytes.push_back(p.request_frame_bytes);
      rep_bytes.push_back(p.report_frame_bytes);
      deduped += p.deduped ? 1.0 : 0.0;
      cache.hits += p.cache.hits;
      cache.misses += p.cache.misses;
      cache.dfg_hits += p.cache.dfg_hits;
      cache.dfg_misses += p.cache.dfg_misses;
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double single_ms = self_of("core.single_cut");
  const double multi_ms = self_of("core.multi_cut");
  const std::vector<Metric> metrics = {
      {"service.frame_decode_ms", per_request("service.frame_decode"), "ms"},
      {"service.send_to_accepted_ms", percentile(s2a, 0.5), "ms"},
      {"service.accepted_to_extracted_ms", percentile(a2e, 0.5), "ms"},
      {"service.selected_to_report_ms", percentile(s2r, 0.5), "ms"},
      {"service.request_frame_bytes", mean(req_bytes), "bytes"},
      {"service.report_frame_bytes", mean(rep_bytes), "bytes"},
      {"service.dedup_ratio", ratio(deduped, static_cast<double>(s2a.size())), "ratio"},
      {"service.batch_size_mean", mean(batch), "count"},
      {"service.queue_depth_mean", mean(depth), "count"},
      {"cache.hit_ratio", ratio(static_cast<double>(cache.hits),
                                static_cast<double>(cache.hits + cache.misses)), "ratio"},
      {"cache.dfg_hit_ratio", ratio(static_cast<double>(cache.dfg_hits),
                                    static_cast<double>(cache.dfg_hits + cache.dfg_misses)),
       "ratio"},
      {"api.report_json_ms", per_request("api.report_json"), "ms"},
      {"api.report_bytes", mean(report_bytes), "bytes"},
      {"text.parse_ms", per_request("text.parse"), "ms"},
      {"text.parse_mb_per_s", ratio(text_bytes / 1e6, self_of("text.parse") / 1e3), "MB/s"},
      {"text.load_ms", load_ms / n, "ms"},
      {"ir.verify_ms", per_request("ir.verify"), "ms"},
      {"ir.print_ms", per_request("ir.print"), "ms"},
      {"interp.probe_ms", per_request("interp.probe"), "ms"},
      {"workloads.build_ms", per_request("workloads.build"), "ms"},
      {"passes.preprocess_ms", per_request("passes.preprocess"), "ms"},
      {"workloads.extract_ms", per_request("workloads.extract"), "ms"},
      {"dfg.nodes", mean(nodes), "count"},
      {"core.single_cut_ms", single_ms / n, "ms"},
      {"core.single_cut.cuts", single_cuts, "count"},
      {"core.single_cut.cuts_per_s", ratio(single_cuts, single_ms / 1e3), "1/s"},
      {"core.subtree.tasks", tasks, "count"},
      {"core.subtree.serial_searches", serial_searches, "count"},
      {"core.subtree.speedup", subtree_speedup, "ratio"},
      {"core.multi_cut_ms", multi_ms / n, "ms"},
      {"core.multi_cut.cuts", multi_cuts, "count"},
      {"core.multi_cut.cuts_per_s", ratio(multi_cuts, multi_ms / 1e3), "1/s"},
      {"core.multi_cut.budget_exhausted_frac", ratio(exhausted, multi_requests), "ratio"},
      {"core.select_ms", per_request("core.select"), "ms"},
      {"emit.rewrite_verify_ms", per_request("emit.rewrite_verify"), "ms"},
      {"emit.emitters_ms", per_request("emit.emitters"), "ms"},
      {"emit.artifact_bytes", ratio(artifact_bytes, emitting), "bytes"},
      {"api.unattributed_ms", per_request("request"), "ms"},
  };

  // Self-time table over the replay, largest first.
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, ms] : self) rows.emplace_back(ms, name);
  std::sort(rows.rbegin(), rows.rend());
  std::cout << "per-layer self time over " << replay.size() << " replayed requests (ms/request, "
            << "share of request wall):\n";
  for (const auto& [ms, name] : rows) {
    const std::string label = name == "request" ? "api.unattributed (request self)" : name;
    std::cout << "  " << label << std::string(label.size() < 36 ? 36 - label.size() : 1, ' ')
              << number(ms / n) << "  " << number(100.0 * ms / traced_ms) << "%\n";
  }
  if (serve) {
    std::cout << "classes: single-cut " << number(single_ms) << " ms, multi-cut "
              << number(multi_ms) << " ms\n";
  } else {
    // explore_cold: wall time per class over the replayed pass.
    double class_ms[3] = {0, 0, 0};
    std::size_t k = 0;
    for (const Span& s : tracer.spans()) {
      if (s.name != "request") continue;
      const std::size_t i = static_cast<std::size_t>(replay[k++]);
      const ExplorationRequest& r = in.requests[i];
      class_ms[r.scheme == "optimal" ? 0 : r.workload.empty() ? 2 : 1] +=
          ms_between(s.start, s.end);
    }
    std::cout << "class wall (ms): (a) optimal " << number(class_ms[0]) << ", (b) iterative+emit "
              << number(class_ms[1]) << ", (c) synthetic block " << number(class_ms[2]) << "\n";
  }
  std::cout << "tracing overhead: traced replay " << number(traced_ms / n)
            << " ms/request vs untraced library run " << number(untraced_ms / n) << " ms/request ("
            << number(100.0 * (traced_ms - untraced_ms) / untraced_ms) << "%)\n";

  Tracer all(origin);
  all.append(tracer);
  if (loop != nullptr) all.append(loop->spans);
  Json meta = environment_record(opt.git_commit);
  meta.set("workload", opt.workload);
  meta.set("seed", static_cast<std::uint64_t>(opt.seed));
  const std::string path =
      opt.out_dir + "/trace-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  std::ofstream(path) << all.to_chrome_json(meta).dump() << "\n";
  std::cout << "trace written to " << path << " (" << all.spans().size() << " spans)\n";
  return finish(tally, metrics);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw isex::Error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
      if (!(opt.seconds >= 1.0)) throw isex::Error("--seconds must be at least 1");
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--isexd") {
      opt.isexd = value();
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else if (arg == "--git-commit") {
      opt.git_commit = value();
    } else if (arg == "--corrupt-pin") {
      opt.corrupt_pin = true;
    } else {
      throw isex::Error("unknown argument '" + arg + "'");
    }
  }
  if (opt.workload != "serve_hot" && opt.workload != "serve_ir_large" &&
      opt.workload != "explore_cold") {
    throw isex::Error("--workload must be serve_hot, serve_ir_large or explore_cold");
  }
  if (opt.workload != "explore_cold" && opt.isexd.empty()) {
    throw isex::Error("--isexd PATH is required for the serve workloads");
  }
  return opt;
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const int clients = std::min(4, usable_cpus());
  const Json env = environment_record(opt.git_commit);
  std::cout << "workload " << opt.workload << " seed " << opt.seed << " seconds "
            << number(opt.seconds) << " trace " << (opt.trace ? 1 : 0) << " clients/threads "
            << clients << "\n";
  std::cout << "env " << env.dump() << "\n";
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cout << "WARNING: not a Release build; timings are not comparable\n";
  }
  const Clock::time_point t0 = Clock::now();
  Inputs in = opt.workload == "serve_hot"        ? make_serve_hot(opt.seed, clients)
              : opt.workload == "serve_ir_large"
                  ? make_serve_ir_large(opt.seed, std::min(clients, kDaemonWorkers))
                                                 : make_explore_cold(clients);
  std::cout << in.requests.size() << " distinct requests, inputs and in-process pins in "
            << number(seconds_since(t0)) << " s\n";
  return opt.trace ? run_traced(opt, in) : run_untraced(opt, in);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "isex_perfbench: " << e.what() << "\n";
    return 2;
  }
}
