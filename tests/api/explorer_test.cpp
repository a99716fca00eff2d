// The Explorer facade: registered schemes must match their legacy free
// functions byte-for-byte, the parallel identification path must be
// indistinguishable from the serial one, and reports must round-trip
// through JSON.
#include "api/explorer.hpp"

#include <gtest/gtest.h>

#include "core/area_select.hpp"
#include "core/baseline_select.hpp"
#include "core/iterative_select.hpp"
#include "core/optimal_select.hpp"
#include "dfg/random_dag.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Constraints cons(int nin, int nout) {
  Constraints c;
  c.max_inputs = nin;
  c.max_outputs = nout;
  return c;
}

/// A block with `chains` independent profitable mul+add chains.
Dfg chains_block(double freq, int chains) {
  Dfg g;
  for (int i = 0; i < chains; ++i) {
    const NodeId a = g.add_input();
    const NodeId b = g.add_input();
    const NodeId m = g.add_op(Opcode::mul);
    const NodeId s = g.add_op(Opcode::add);
    g.add_edge(a, m);
    g.add_edge(b, m);
    g.add_edge(m, s);
    g.add_edge(a, s);
    g.add_output(s);
  }
  g.set_exec_freq(freq);
  g.finalize();
  return g;
}

std::vector<Dfg> random_blocks(std::uint64_t seed, int count, int num_ops) {
  std::vector<Dfg> blocks;
  for (int b = 0; b < count; ++b) {
    RandomDagConfig cfg;
    cfg.num_ops = num_ops;
    cfg.seed = seed * 131 + static_cast<std::uint64_t>(b);
    Dfg g = random_dag(cfg);
    g.set_exec_freq(1.0 + static_cast<double>(b) * 3);
    blocks.push_back(std::move(g));
  }
  return blocks;
}

/// Byte-level equality of two selections (cut bits, ordering, merits, stats).
void expect_identical(const SelectionResult& a, const SelectionResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.cuts.size(), b.cuts.size()) << label;
  for (std::size_t i = 0; i < a.cuts.size(); ++i) {
    EXPECT_EQ(a.cuts[i].block_index, b.cuts[i].block_index) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].cut.to_string(), b.cuts[i].cut.to_string()) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].merit, b.cuts[i].merit) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.num_ops, b.cuts[i].metrics.num_ops) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.inputs, b.cuts[i].metrics.inputs) << label << " cut " << i;
    EXPECT_EQ(a.cuts[i].metrics.outputs, b.cuts[i].metrics.outputs) << label << " cut " << i;
  }
  EXPECT_EQ(a.total_merit, b.total_merit) << label;
  EXPECT_EQ(a.identification_calls, b.identification_calls) << label;
  EXPECT_EQ(a.stats.cuts_considered, b.stats.cuts_considered) << label;
  EXPECT_EQ(a.stats.passed_checks, b.stats.passed_checks) << label;
  EXPECT_EQ(a.stats.failed_output, b.stats.failed_output) << label;
  EXPECT_EQ(a.stats.failed_convex, b.stats.failed_convex) << label;
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted) << label;
}

SelectionResult legacy_select(const std::string& scheme, std::span<const Dfg> blocks,
                              const Constraints& c, int ninstr) {
  if (scheme == "iterative") return select_iterative(blocks, kLat, c, ninstr);
  if (scheme == "optimal") {
    return select_optimal(blocks, kLat, c, ninstr, OptimalMode::greedy_increments);
  }
  if (scheme == "optimal-dp") {
    return select_optimal(blocks, kLat, c, ninstr, OptimalMode::exact_dp);
  }
  if (scheme == "clubbing") {
    return select_baseline(blocks, kLat, c, ninstr, BaselineAlgorithm::clubbing);
  }
  if (scheme == "maxmiso") {
    return select_baseline(blocks, kLat, c, ninstr, BaselineAlgorithm::max_miso);
  }
  if (scheme == "area") {
    AreaSelectOptions options;
    options.num_instructions = ninstr;
    return select_area_constrained(blocks, kLat, c, options);
  }
  throw Error("unknown scheme in test: " + scheme);
}

const std::vector<std::string> kAllSchemes = {"iterative", "optimal",  "optimal-dp",
                                              "clubbing",  "maxmiso", "area"};

// --- scheme registry ---------------------------------------------------------

TEST(SchemeRegistry, BuiltinsRegistered) {
  const auto names = SchemeRegistry::global().names();
  for (const std::string& scheme : kAllSchemes) {
    EXPECT_NE(std::find(names.begin(), names.end(), scheme), names.end()) << scheme;
    EXPECT_NE(SchemeRegistry::global().find(scheme), nullptr);
    EXPECT_FALSE(SchemeRegistry::global().get(scheme).description().empty());
  }
}

TEST(SchemeRegistry, UnknownSchemeThrowsStructuredErrorListingEveryName) {
  try {
    SchemeRegistry::global().get("does-not-exist");
    FAIL() << "expected SchemeNotFoundError";
  } catch (const SchemeNotFoundError& e) {
    // The structured fields carry the failed name and the full (sorted)
    // listing, so callers need not parse the message...
    EXPECT_EQ(e.requested(), "does-not-exist");
    EXPECT_EQ(e.registered(), SchemeRegistry::global().names());
    // ...but the message also names every registered scheme for humans.
    const std::string what = e.what();
    EXPECT_NE(what.find("does-not-exist"), std::string::npos);
    for (const std::string& name : SchemeRegistry::global().names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
  // SchemeNotFoundError stays catchable as the library-wide Error.
  EXPECT_THROW(SchemeRegistry::global().get(""), Error);
}

TEST(SchemeRegistry, PortfolioCapabilityIsDiscoverable) {
  const std::vector<std::string> portfolio = SchemeRegistry::global().portfolio_names();
  EXPECT_EQ(portfolio, (std::vector<std::string>{"joint-iterative", "merge-then-select"}));
  for (const std::string& name : portfolio) {
    EXPECT_TRUE(SchemeRegistry::global().get(name).supports_portfolio()) << name;
  }
  EXPECT_FALSE(SchemeRegistry::global().get("iterative").supports_portfolio());
}

namespace {

class FirstChainScheme : public SelectionScheme {
 public:
  const std::string& name() const override {
    static const std::string n = "first-chain";
    return n;
  }
  const std::string& description() const override {
    static const std::string d = "test scheme: best single cut of block 0";
    return d;
  }
  PortfolioSelectionResult select(const SchemeInputs& in) const override {
    const std::span<const Dfg> blocks = in.single_workload_blocks(name());
    SelectionResult r;
    const SingleCutResult best = find_best_cut(blocks[0], in.latency, in.constraints);
    if (best.merit > 0) {
      SelectedCut sc;
      sc.block_index = 0;
      sc.cut = best.cut;
      sc.merit = best.merit;
      sc.metrics = best.metrics;
      r.cuts.push_back(std::move(sc));
      r.total_merit = best.merit;
    }
    r.identification_calls = 1;
    r.stats = best.stats;
    return portfolio_from_single(std::move(r), in.bundles[0].weight);
  }
};

}  // namespace

TEST(SchemeRegistry, UserSchemesPlugIntoExplorer) {
  SchemeRegistry registry;
  register_builtin_schemes(registry);
  registry.add(std::make_unique<FirstChainScheme>());
  EXPECT_THROW(registry.add(std::make_unique<FirstChainScheme>()), Error);  // duplicate

  const Explorer explorer(kLat, &registry);
  ExplorationRequest request;
  request.graphs.push_back(chains_block(10.0, 2));
  request.graphs.push_back(chains_block(99.0, 1));
  request.scheme = "first-chain";
  request.constraints = cons(4, 1);
  const ExplorationReport report = explorer.run(request);
  ASSERT_EQ(report.cuts.size(), 1u);
  EXPECT_EQ(report.cuts[0].block_index, 0);
  EXPECT_EQ(report.identification_calls, 1u);
}

// --- scheme equivalence ------------------------------------------------------

TEST(Explorer, SchemesMatchLegacyFunctionsOnFixedKernels) {
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 2));
  blocks.push_back(chains_block(50.0, 1));
  blocks.push_back(chains_block(20.0, 3));

  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.graphs = blocks;
  request.constraints = cons(4, 1);
  request.num_instructions = 4;
  for (const std::string& scheme : kAllSchemes) {
    request.scheme = scheme;
    const ExplorationReport report = explorer.run_blocks(blocks, request);
    const SelectionResult legacy =
        legacy_select(scheme, blocks, request.constraints, request.num_instructions);
    expect_identical(report.selection, legacy, scheme);
  }
}

TEST(Explorer, SchemesMatchLegacyFunctionsOnRandomDags) {
  const Explorer explorer(kLat);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<Dfg> blocks = random_blocks(seed, 3, 10);
    ExplorationRequest request;
    request.constraints = cons(3, 2);
    request.num_instructions = 3;
    for (const std::string& scheme : kAllSchemes) {
      request.scheme = scheme;
      const ExplorationReport report = explorer.run_blocks(blocks, request);
      const SelectionResult legacy =
          legacy_select(scheme, blocks, request.constraints, request.num_instructions);
      expect_identical(report.selection, legacy, scheme + " seed " + std::to_string(seed));
    }
  }
}

// --- parallel determinism ----------------------------------------------------

TEST(Explorer, ParallelIdentificationMatchesSerial) {
  const Explorer explorer(kLat);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<Dfg> blocks = random_blocks(seed, 6, 12);
    for (const std::string& scheme : kAllSchemes) {
      ExplorationRequest request;
      request.constraints = cons(3, 2);
      request.num_instructions = 4;
      request.scheme = scheme;

      request.num_threads = 1;
      const ExplorationReport serial = explorer.run_blocks(blocks, request);
      request.num_threads = 4;
      const ExplorationReport parallel = explorer.run_blocks(blocks, request);

      expect_identical(parallel.selection, serial.selection,
                       scheme + " seed " + std::to_string(seed));
      EXPECT_EQ(parallel.num_threads, 4) << scheme;
      EXPECT_EQ(serial.num_threads, 1) << scheme;
    }
  }
}

TEST(Explorer, ParallelPipelineOnRealWorkloadMatchesSerial) {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = "iterative";
  request.constraints = cons(4, 2);
  request.num_instructions = 4;

  const Explorer explorer(kLat);
  request.num_threads = 1;
  const ExplorationReport serial = explorer.run(request);
  request.num_threads = 3;
  const ExplorationReport parallel = explorer.run(request);
  expect_identical(parallel.selection, serial.selection, "crc32");
  EXPECT_EQ(serial.base_cycles, parallel.base_cycles);
}

// --- pipeline semantics ------------------------------------------------------

TEST(Explorer, WorkloadPipelineRewritesAndValidates) {
  ExplorationRequest request;
  request.workload = "gsm";
  request.scheme = "iterative";
  request.constraints = cons(4, 2);
  request.num_instructions = 2;
  request.emission.verify_rewrites = true;
  request.emission.targets = {"verilog"};

  const Explorer explorer(kLat);
  Workload w = find_workload("gsm");
  const ExplorationReport report = explorer.run(w, request);
  EXPECT_EQ(report.workload, "gsm");
  EXPECT_GT(report.num_blocks, 0);
  EXPECT_TRUE(report.validation.rewritten);
  EXPECT_TRUE(report.validation.bit_exact);
  EXPECT_LT(report.validation.cycles_after, report.validation.cycles_before);
  EXPECT_GT(report.validation.measured_speedup, 1.0);
  ASSERT_EQ(report.afus.size(), report.cuts.size());
  // One Verilog module per AFU, plus gsm's wrapper.
  ASSERT_EQ(report.emission.artifacts.size(), report.afus.size() + 1);
  EXPECT_EQ(report.emission.artifacts[0].path, "afu/" + report.afus[0].name + ".v");
  EXPECT_GT(report.afu_area_macs, 0.0);
}

TEST(Explorer, UnknownWorkloadAndSchemeThrow) {
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.workload = "no-such-kernel";
  EXPECT_THROW(explorer.run(request), Error);

  request.workload = "crc32";
  request.scheme = "no-such-scheme";
  EXPECT_THROW(explorer.run(request), Error);

  ExplorationRequest empty;
  EXPECT_THROW(explorer.run(empty), Error);  // neither workload nor graphs
}

TEST(Explorer, StatsSurfaceThroughEveryScheme) {
  // The satellite fix: the full EnumerationStats must flow through
  // SelectionResult for every scheme that runs the enumerator.
  const std::vector<Dfg> blocks = random_blocks(7, 3, 12);
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.constraints = cons(3, 2);
  request.num_instructions = 3;
  for (const std::string& scheme : {std::string("iterative"), std::string("optimal"),
                                    std::string("optimal-dp"), std::string("area")}) {
    request.scheme = scheme;
    const ExplorationReport report = explorer.run_blocks(blocks, request);
    EXPECT_GT(report.stats.cuts_considered, 0u) << scheme;
    EXPECT_GT(report.stats.passed_checks, 0u) << scheme;
    EXPECT_GT(report.identification_calls, 0u) << scheme;
  }
}

// --- report JSON round-trip --------------------------------------------------

TEST(ExplorationReport, JsonRoundTripsByteIdentically) {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = "iterative";
  request.constraints = cons(4, 1);
  request.constraints.branch_and_bound = true;
  request.constraints.search_budget = 123456;
  request.num_instructions = 3;
  request.emission.build_afus = true;

  const Explorer explorer(kLat);
  const ExplorationReport report = explorer.run(request);
  ASSERT_FALSE(report.cuts.empty());

  const std::string text = report.to_json_string();
  const ExplorationReport back = ExplorationReport::from_json(Json::parse(text));
  EXPECT_EQ(back.to_json_string(), text);

  // Spot-check the reconstruction.
  EXPECT_EQ(back.workload, "crc32");
  EXPECT_EQ(back.scheme, "iterative");
  EXPECT_EQ(back.constraints.max_inputs, 4);
  EXPECT_EQ(back.constraints.search_budget, 123456u);
  EXPECT_TRUE(back.constraints.branch_and_bound);
  EXPECT_EQ(back.cuts.size(), report.cuts.size());
  EXPECT_EQ(back.afus.size(), report.afus.size());
  EXPECT_EQ(back.stats.cuts_considered, report.stats.cuts_considered);
  EXPECT_EQ(back.identification_calls, report.identification_calls);
  EXPECT_EQ(back.validation.rewritten, report.validation.rewritten);
}

TEST(ExplorationReport, JsonRoundTripsForEveryRegisteredSchemeWithNonDefaultFields) {
  // Property-style sweep: every scheme the registry knows (including the
  // portfolio-capable ones running as one-bundle portfolios) must produce a
  // report that serializes byte-stably with non-default request fields —
  // cache opt-out, explicit thread count, tweaked constraints — preserved.
  const Explorer explorer(kLat);
  std::vector<Dfg> blocks;
  blocks.push_back(chains_block(10.0, 2));
  blocks.push_back(chains_block(25.0, 3));
  for (const std::string& scheme : SchemeRegistry::global().names()) {
    ExplorationRequest request;
    request.graphs = blocks;
    request.scheme = scheme;
    request.constraints = cons(3, 2);
    request.constraints.prune_permanent_inputs = true;
    request.constraints.search_budget = 999999;
    request.num_instructions = 3;
    request.num_threads = 2;
    request.use_cache = false;

    const ExplorationReport report = explorer.run(request);
    const std::string text = report.to_json_string();
    const ExplorationReport back = ExplorationReport::from_json(Json::parse(text));
    EXPECT_EQ(back.to_json_string(), text) << scheme;

    EXPECT_EQ(back.scheme, scheme);
    EXPECT_EQ(back.num_threads, 2) << scheme;
    EXPECT_FALSE(back.cache.enabled) << scheme;
    EXPECT_EQ(back.cache.counters.hits, 0u) << scheme;
    EXPECT_TRUE(back.constraints.prune_permanent_inputs) << scheme;
    EXPECT_EQ(back.constraints.search_budget, 999999u) << scheme;
    EXPECT_EQ(back.num_instructions, 3) << scheme;
    EXPECT_EQ(back.cuts.size(), report.cuts.size()) << scheme;
  }
}

TEST(ExplorationReport, FromJsonRejectsMissingFields) {
  EXPECT_THROW(ExplorationReport::from_json(Json::parse("{}")), Error);
  EXPECT_THROW(ExplorationReport::from_json(Json::parse("{\"workload\": \"x\"}")), Error);
}

TEST(ExplorationReport, FromJsonAcceptsReportsSavedBeforeCrossWorkloadCounters) {
  // Report files archived before the portfolio API have no
  // cache.cross_workload_hits key; they must stay loadable (counter 0).
  const Explorer explorer(kLat);
  ExplorationRequest request;
  request.graphs.push_back(chains_block(10.0, 2));
  const Json serialized = explorer.run(request).to_json();

  Json old_cache = Json::object();
  for (const auto& [key, value] : serialized.at("cache").as_object()) {
    if (key != "cross_workload_hits") old_cache.set(key, value);
  }
  Json old_report = Json::object();
  for (const auto& [key, value] : serialized.as_object()) {
    old_report.set(key, key == "cache" ? old_cache : value);
  }

  const ExplorationReport back = ExplorationReport::from_json(old_report);
  EXPECT_EQ(back.cache.counters.cross_workload_hits, 0u);
  EXPECT_FALSE(back.cuts.empty());
}

}  // namespace
}  // namespace isex
