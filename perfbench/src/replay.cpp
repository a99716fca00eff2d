#include "replay.hpp"

#include <cstdio>
#include <memory>
#include <thread>

#include "emit/plan.hpp"
#include "emit/verify.hpp"
#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "service/protocol.hpp"
#include "support/hash.hpp"
#include "text/parser.hpp"
#include "workloads/util.hpp"

namespace perfbench {

namespace {

using namespace isex;

/// Executor decorator: times each top-level parallel_for the selecting
/// thread issues as one identification span. The schemes run their per-block
/// find_best_cut / find_best_cuts calls through exactly these calls, so the
/// spans are the identification layer; nested calls (subtree tasks) and calls
/// from pool workers pass through untimed.
class TimingExecutor : public Executor {
 public:
  TimingExecutor(Executor& inner, Tracer* tracer, const char* span, std::int64_t rid)
      : inner_(inner), tracer_(tracer), span_(span), rid_(rid),
        owner_(std::this_thread::get_id()) {}

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override {
    if (tracer_ == nullptr || span_ == nullptr || std::this_thread::get_id() != owner_ ||
        depth_ > 0) {
      inner_.parallel_for(n, fn);
      return;
    }
    struct Depth {
      int& d;
      explicit Depth(int& depth) : d(depth) { ++d; }
      ~Depth() { --d; }
    } depth(depth_);
    Scope scope(tracer_, span_, rid_);
    inner_.parallel_for(n, fn);
  }
  int num_threads() const override { return inner_.num_threads(); }

 private:
  Executor& inner_;
  Tracer* tracer_;
  const char* span_;
  std::int64_t rid_;
  std::thread::id owner_;
  int depth_ = 0;  // touched by the owner thread only
};

const char* engine_span(const std::string& scheme) {
  if (scheme == "iterative" || scheme == "area") return "core.single_cut";
  if (scheme == "optimal" || scheme == "optimal-dp") return "core.multi_cut";
  return nullptr;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The workload of one request as the load layer produces it. For a text
/// document the Workload object is only built when extraction needs the
/// module (a warm extraction cache needs just the content key).
struct LoadedWorkload {
  std::unique_ptr<Workload> workload;
  std::string cache_key;
  // Parsed text document, kept until a Workload is needed.
  std::unique_ptr<Module> module;
  std::vector<std::int32_t> expected;
  const KernelDoc* doc = nullptr;

  Workload& get(Tracer* tr, std::int64_t rid) {
    if (workload == nullptr) {
      Scope s(tr, "workloads.construct", rid);
      workload = std::make_unique<Workload>(
          doc->name, std::move(module), doc->entry, doc->args,
          SegmentReader{doc->output_segment, doc->output_count}, std::move(expected));
      ISEX_CHECK(workload->cache_key() == cache_key,
                 "replayed load computed a different content fingerprint");
    }
    return *workload;
  }
};

/// load_workload_string, step by step: parse, interpreter probe for the
/// expected outputs, then what the Workload constructor does — verify and
/// the canonical print the content fingerprint hashes.
LoadedWorkload load_text(const KernelDoc& doc, Tracer* tr, std::int64_t rid) {
  LoadedWorkload out;
  out.doc = &doc;
  Scope load(tr, "text.load", rid);
  {
    Scope s(tr, "text.parse", rid);
    out.module = parse_module(std::string_view(doc.text).substr(doc.module_offset));
  }
  {
    Scope s(tr, "interp.probe", rid);
    Memory mem(*out.module);
    Interpreter interp(*out.module, mem);
    interp.run(*out.module->find_function(doc.entry), doc.args);
    out.expected = SegmentReader{doc.output_segment, doc.output_count}(*out.module, mem);
  }
  {
    Scope s(tr, "ir.verify", rid);
    verify_module(*out.module);
  }
  std::string canonical;
  {
    Scope s(tr, "ir.print", rid);
    canonical = module_to_string(*out.module);
  }
  std::uint64_t h = hash_bytes(canonical);
  h = hash_combine(h, hash_bytes(doc.entry));
  for (const std::int32_t a : doc.args) {
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
  }
  out.cache_key = doc.name + "#" + hex16(h);
  return out;
}

void fill_validation(double base_cycles, const RewriteVerification& rv, ValidationReport& out) {
  out.rewritten = true;
  out.bit_exact = rv.bit_exact;
  out.counts_match = rv.counts_match;
  out.custom_invocations = rv.custom_invocations;
  out.cycles_before = static_cast<std::uint64_t>(base_cycles);
  out.cycles_after = rv.cycles_after;
  if (rv.cycles_after > 0) {
    out.measured_speedup = base_cycles / static_cast<double>(rv.cycles_after);
  }
}

void fill_emission(const EmissionOptions& options, const EmissionPlan& plan,
                   const std::vector<EmittedArtifact>& artifacts, EmissionReport& out) {
  out.targets = options.targets;
  out.out_dir = options.out_dir;
  out.verify_rewrites = options.verify_rewrites;
  for (const EmittedArtifact& artifact : artifacts) {
    out.artifacts.push_back(ArtifactReport{artifact.emitter, artifact.path, artifact.bytes,
                                           artifact_hash_hex(artifact.content_hash)});
  }
  for (const EmissionApp& app : plan.apps) {
    out.afu_instantiations.push_back({app.name, static_cast<int>(app.afus.size())});
  }
}

}  // namespace

Json replay_request(const Explorer& explorer, const ExplorationRequest& original,
                    const KernelDoc* doc, bool via_frame, Tracer* tr, std::int64_t rid,
                    ReplayFacts* facts) {
  // The client's encode is not part of the served request.
  std::string line;
  if (via_frame) {
    RequestFrame frame;
    frame.id = "r" + std::to_string(rid);
    frame.type = "explore";
    frame.single = original;
    line = dump_request_frame(frame);
  }
  Scope root(tr, "request", rid);
  ExplorationRequest decoded;
  if (via_frame) {
    Scope s(tr, "service.frame_decode", rid);
    decoded = *parse_request_frame(line).single;
  }
  const ExplorationRequest& request = via_frame ? decoded : original;
  ResultCache& cache = explorer.cache();

  const EmissionOptions emission = request.effective_emission();
  const bool have_module = !request.ir_text.empty() || !request.workload.empty();
  if (emission.active()) validate_emission_options(emission, explorer.emitters(), have_module);
  CacheCounters local;
  ExplorationReport report;
  report.scheme = request.scheme;
  report.constraints = request.constraints;
  report.num_instructions = request.num_instructions;
  report.cache.enabled = request.use_cache;

  // --- load + profile + extract --------------------------------------------
  LoadedWorkload loaded;
  std::shared_ptr<const std::vector<Dfg>> snapshot;
  std::vector<Dfg> owned;
  std::span<const Dfg> blocks;
  if (have_module) {
    if (!request.ir_text.empty()) {
      ISEX_CHECK(doc != nullptr && doc->text == request.ir_text,
                 "replay needs the KernelDoc of the request's ir_text");
      loaded = load_text(*doc, tr, rid);
      report.workload = doc->name;
    } else {
      Scope s(tr, "workloads.build", rid);
      loaded.workload = std::make_unique<Workload>(find_workload(request.workload));
      loaded.cache_key = loaded.workload->cache_key();
      report.workload = loaded.workload->name();
    }
    const bool use_dfg_cache = request.use_cache && !emission.verify_rewrites;
    const bool need_module = emission.build_afus || emission.verify_rewrites ||
                             emission_needs_module(emission, explorer.emitters());
    if (use_dfg_cache) {
      Scope s(tr, "cache.lookup_dfgs", rid);
      snapshot = cache.lookup_dfgs(loaded.cache_key, request.dfg_options, &report.base_cycles,
                                   &local);
    }
    if (snapshot != nullptr) {
      if (need_module) {
        Workload& w = loaded.get(tr, rid);
        Scope s(tr, "passes.preprocess", rid);
        w.preprocess();
      }
      blocks = *snapshot;
    } else {
      Workload& w = loaded.get(tr, rid);
      {
        Scope s(tr, "passes.preprocess", rid);
        w.preprocess();
      }
      {
        Scope s(tr, "workloads.extract", rid);
        owned = w.extract_dfgs(request.dfg_options, &report.base_cycles);
      }
      if (use_dfg_cache) {
        snapshot = std::make_shared<const std::vector<Dfg>>(std::move(owned));
        owned.clear();
        cache.store_dfgs(loaded.cache_key, request.dfg_options, snapshot, report.base_cycles,
                         &local);
        blocks = *snapshot;
      } else {
        blocks = owned;
      }
    }
  } else {
    blocks = request.graphs;
    for (const Dfg& g : blocks) report.base_cycles += block_static_cycles(g, explorer.latency());
  }
  report.num_blocks = static_cast<int>(blocks.size());

  // --- identify + select ---------------------------------------------------
  std::unique_ptr<ThreadPool> pool;
  Executor* executor = &serial_executor();
  if (request.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(request.num_threads);
    executor = pool.get();
  }
  report.num_threads = executor->num_threads();
  const char* engine = engine_span(request.scheme);
  TimingExecutor timed(*executor, tr, engine, rid);
  WorkloadBundle bundle;
  bundle.name = report.workload;
  bundle.blocks = blocks;
  bundle.weight = 1.0;
  bundle.base_cycles = report.base_cycles;
  SearchEngineStats engine_stats;
  SchemeInputs inputs{std::span<const WorkloadBundle>(&bundle, 1),
                      explorer.latency(),
                      request.constraints,
                      request.num_instructions,
                      request.area,
                      &timed,
                      request.use_cache ? &cache : nullptr,
                      &local,
                      request.subtree_split_depth,
                      &engine_stats,
                      nullptr,
                      nullptr};
  {
    Scope s(tr, "core.select", rid);
    report.selection = portfolio_to_single(explorer.registry().get(request.scheme).select(inputs));
  }
  report.engine.subtree_split_depth = request.subtree_split_depth;
  report.engine.subtree_tasks = engine_stats.subtree_tasks.load();
  report.engine.split_searches = engine_stats.split_searches.load();
  report.engine.serial_searches = engine_stats.serial_searches.load();
  report.total_merit = report.selection.total_merit;
  report.identification_calls = report.selection.identification_calls;
  report.stats = report.selection.stats;
  if (report.base_cycles > report.total_merit) {
    report.estimated_speedup = application_speedup(report.base_cycles, report.total_merit);
  }
  for (const SelectedCut& sc : report.selection.cuts) {
    CutReport cr;
    cr.block_index = sc.block_index;
    cr.block = blocks[static_cast<std::size_t>(sc.block_index)].name();
    cr.merit = sc.merit;
    cr.metrics = sc.metrics;
    cr.nodes = sc.cut.to_string();
    report.cuts.push_back(std::move(cr));
  }

  // --- AFU construction / rewrite-verify / artifact emission ---------------
  double artifact_bytes = 0.0;
  if (emission.active()) {
    // The benchmark's emitting requests all verify their rewrites, which is
    // where the AFUs come from; Explorer's other AFU path is not replayed.
    ISEX_CHECK(have_module && emission.verify_rewrites && !emission.build_afus,
               "replay covers emission with verify_rewrites on a workload only");
    Workload& workload = loaded.get(tr, rid);
    Module* module = &workload.module();
    std::vector<CustomOp> ops;
    RewriteVerification rv;
    {
      Scope s(tr, "emit.rewrite_verify", rid);
      rv = rewrite_and_verify(workload, blocks, report.selection, explorer.latency(),
                              request.name_prefix);
    }
    fill_validation(report.base_cycles, rv, report.validation);
    for (const int index : rv.custom_op_indices) ops.push_back(module->custom_op(index));
    for (const CustomOp& op : ops) {
      report.afus.push_back(AfuReport{op.name, op.num_inputs, op.num_outputs(), op.latency_cycles,
                                      op.area_macs});
      report.afu_area_macs += op.area_macs;
    }
    if (!emission.targets.empty()) {
      const std::string app_name = report.workload.empty() ? "workload0" : report.workload;
      EmissionPlan plan;
      {
        Scope s(tr, "emit.plan", rid);
        plan = plan_from_selection(app_name, module, blocks, report.selection, ops,
                                   report.scheme, request.name_prefix);
      }
      std::vector<EmittedArtifact> artifacts;
      {
        Scope s(tr, "emit.emitters", rid);
        artifacts = run_emitters(explorer.emitters(), emission.targets, plan);
      }
      fill_emission(emission, plan, artifacts, report.emission);
      for (const EmittedArtifact& a : artifacts) artifact_bytes += static_cast<double>(a.bytes);
    }
  }
  report.cache.counters = local;

  Json json;
  std::string dumped;
  {
    Scope s(tr, "api.report_json", rid);
    json = report.to_json();
    dumped = json.dump();
  }
  if (facts != nullptr) {
    facts->engine = engine;
    facts->cuts = engine != nullptr && local.hits == 0 ? report.stats.cuts_considered : 0;
    facts->budget_exhausted = report.stats.budget_exhausted;
    facts->subtree_tasks = report.engine.subtree_tasks;
    facts->serial_searches = report.engine.serial_searches;
    for (const Dfg& g : blocks) facts->dfg_nodes += static_cast<double>(g.num_nodes());
    facts->module_text_bytes =
        doc != nullptr ? static_cast<double>(doc->text.size() - doc->module_offset) : 0.0;
    facts->report_bytes = static_cast<double>(dumped.size());
    facts->artifact_bytes = artifact_bytes;
  }
  return json;
}

}  // namespace perfbench
