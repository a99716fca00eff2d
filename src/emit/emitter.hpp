// Pluggable artifact-emission backends behind one interface, mirroring the
// SchemeRegistry pattern on the selection side: an EmissionOptions names the
// targets, an EmitterRegistry resolves them, and every ArtifactEmitter turns
// the fully-resolved EmissionPlan (applications, synthesized AFUs, serving
// attribution) into named artifacts. The paper's flow ends by handing the
// chosen cuts to a synthesis backend; this module is that hand-off, made
// portfolio-native — one Verilog AFU per selected instruction plus one
// wrapper per serving application.
//
// Built-in emitters (see register_builtin_emitters):
//   verilog      — one combinational Verilog-2001 module per instruction
//                  (afu/<name>.v) and a per-application wrapper instantiating
//                  every AFU that serves it (<app>/<app>_afu.v)
//   c-intrinsics — a compilable behavioural header per application
//                  (<app>/<app>_intrinsics.h), ROM tables included
//   dot          — Graphviz rendering of every rewritten block with its cuts
//                  highlighted (dot/<app>_b<i>_<block>.dot); works on
//                  graph-only requests too
//   manifest     — manifest.json tying every artifact and instruction to its
//                  (workload, block) attribution; always emitted last
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/cut.hpp"
#include "dfg/dfg.hpp"
#include "ir/module.hpp"
#include "support/assert.hpp"
#include "support/registry.hpp"

namespace isex {

/// Structured emission request of an ExplorationRequest or
/// MultiExplorationRequest.
struct EmissionOptions {
  /// Emitter names resolved against the EmitterRegistry ("verilog",
  /// "c-intrinsics", "dot", "manifest", or user-added).
  std::vector<std::string> targets;
  /// When non-empty, every artifact is also written under this directory
  /// (created on demand); artifact paths are relative to it.
  std::string out_dir;
  /// Rewrite each workload onto its custom ops, then re-run it through the
  /// interpreter and check that the outputs are bit-exact AND that every
  /// custom op executed exactly as often as its block did in the baseline
  /// profile. Mutates the workload module(s); fills the validation report.
  /// A single-workload report then takes its AFUs (report.afus and the
  /// emitted artifacts) from the rewrite, which builds each later
  /// instruction of a block after collapsing the earlier ones — so their
  /// port order can differ from the AFUs built without verification (and
  /// from a portfolio report's, which always come from the pristine module).
  bool verify_rewrites = false;
  /// Snapshot AFU descriptions (ports, latency, area) into the report even
  /// when no target consumes them (implied by verify_rewrites and by any
  /// module-consuming target). Single-workload requests only —
  /// PortfolioReport has no AFU-snapshot field, so run_portfolio rejects it
  /// in favour of module-consuming targets.
  bool build_afus = false;

  /// True when this request asks for any emission work at all.
  bool active() const {
    return !targets.empty() || verify_rewrites || build_afus || !out_dir.empty();
  }
};

/// One generated artifact. `path` is relative to the artifact tree root and
/// uses '/' separators; emitters fill emitter/bytes/content_hash via the
/// engine (run_emitters), not themselves.
struct EmittedArtifact {
  std::string emitter;
  std::string path;
  std::string content;
  std::uint64_t bytes = 0;
  std::uint64_t content_hash = 0;  // hash_bytes(content)
};

/// Canonical 16-hex-digit rendering of an artifact content hash (used by the
/// report JSON and the manifest, so the two always agree).
std::string artifact_hash_hex(std::uint64_t hash);

/// One (application, block) instance an instruction serves.
struct EmissionInstance {
  int app_index = 0;
  int block_index = 0;
  std::string block;  // DFG name of the block
  std::string nodes;  // cut over that block's original node ids
};

/// One selected instruction, resolved for emission. `op` carries the
/// executable micro-program when `rom_module` is non-null (module-backed
/// plans); graph-only plans leave it empty apart from the name.
struct EmissionAfu {
  CustomOp op;
  /// Module providing the ROM segment contents referenced by `op` (the
  /// origin application's); null in graph-only plans.
  const Module* rom_module = nullptr;
  int origin_app = 0;
  int origin_block = 0;
  double merit = 0.0;           // raw cycles saved per serving instance
  double weighted_merit = 0.0;  // sum over instances of weight * merit
  CutMetrics metrics;
  std::vector<EmissionInstance> served;  // origin first
  /// Parallel to `served`: the cut bits over that instance's node ids.
  std::vector<BitVector> served_cut_bits;
};

/// One application of the plan. `module` is null for graph-only requests
/// (then only module-free emitters may run — validation enforces it).
struct EmissionApp {
  std::string name;
  /// Unique, filesystem-safe directory/module prefix for this application's
  /// artifacts (duplicated workloads in one portfolio get an index suffix).
  std::string dir;
  double weight = 1.0;
  const Module* module = nullptr;
  std::span<const Dfg> blocks;
  /// Indices into EmissionPlan::afus of the instructions serving this
  /// application (ascending) — the wrapper instantiates exactly these.
  std::vector<int> afus;
};

/// Everything an emitter may consume. Emitters must be pure functions of the
/// plan (deterministic byte output for identical plans, any thread count).
struct EmissionPlan {
  std::string scheme;
  std::string name_prefix = "isex";
  std::vector<EmissionApp> apps;
  std::vector<EmissionAfu> afus;
};

class ArtifactEmitter {
 public:
  virtual ~ArtifactEmitter() = default;
  /// Registry key, e.g. "verilog".
  virtual const std::string& name() const = 0;
  /// One-line human description for listings and error messages.
  virtual const std::string& description() const = 0;
  /// True when the emitter reads workload modules (AFU micro-programs, ROM
  /// segments); such targets are rejected for graph-only requests.
  virtual bool needs_module() const { return true; }
  /// True when the emitter describes the other artifacts (manifest-style);
  /// the engine runs it after every ordinary emitter and hands it their
  /// output through `prior`.
  virtual bool wants_prior_artifacts() const { return false; }
  /// Produces the artifacts. `prior` holds everything emitted earlier in
  /// this run (empty unless wants_prior_artifacts()).
  virtual std::vector<EmittedArtifact> emit(const EmissionPlan& plan,
                                            std::span<const EmittedArtifact> prior) const = 0;
};

/// Unknown-name lookup failure of an EmitterRegistry (see NotFoundError).
using EmitterNotFoundError = NotFoundError<ArtifactEmitter>;

/// Contradictory or no-op EmissionOptions combination (e.g. a Verilog target
/// on a graph-only request, an out_dir with no targets): carries the
/// offending field/target and the reason as structured fields.
class EmissionOptionsError : public Error {
 public:
  EmissionOptionsError(std::string field, std::string reason);

  /// The offending option: a target name, "out_dir", "verify_rewrites", ...
  const std::string& field() const { return field_; }
  const std::string& reason() const { return reason_; }

 private:
  std::string field_;
  std::string reason_;
};

/// Thread-safe name-keyed emitter registry; the global() instance comes with
/// the built-in emitters listed at the top of this header.
class EmitterRegistry : public Registry<ArtifactEmitter> {
 public:
  /// The process-wide registry (built-ins pre-registered).
  static EmitterRegistry& global();

  /// An empty registry (tests, sandboxing user emitters).
  EmitterRegistry() : Registry("emission target") {}
};

/// Registers the built-in emitters into `registry` (used by global();
/// exposed so tests can build isolated registries with the standard set).
void register_builtin_emitters(EmitterRegistry& registry);

/// Rejects contradictory or no-op option combinations with a structured
/// error: unknown or duplicated targets, module-consuming targets (or
/// verify_rewrites / build_afus) on a graph-only request, an out_dir with
/// nothing to emit. `have_modules` is true when every application of the
/// request carries a workload module.
void validate_emission_options(const EmissionOptions& options, const EmitterRegistry& registry,
                               bool have_modules);

/// True when any requested target reads workload modules. Targets must have
/// been validated (unknown names throw EmitterNotFoundError).
bool emission_needs_module(const EmissionOptions& options, const EmitterRegistry& registry);

/// Runs the requested emitters over `plan` in request order (manifest-style
/// emitters moved last), fills bytes/hashes, and rejects duplicate artifact
/// paths. Deterministic: identical plans produce identical bytes.
std::vector<EmittedArtifact> run_emitters(const EmitterRegistry& registry,
                                          std::span<const std::string> targets,
                                          const EmissionPlan& plan);

/// Writes every artifact under `out_dir` (directories created on demand).
/// Artifact paths must be relative and '..'-free; throws isex::Error on I/O
/// failure.
void write_artifacts(std::span<const EmittedArtifact> artifacts, const std::string& out_dir);

/// Replaces every character outside [A-Za-z0-9_.-] with '_' — the one
/// filename sanitizer behind every emitter, so artifact trees stay portable.
std::string sanitize_artifact_name(std::string_view name);

}  // namespace isex
