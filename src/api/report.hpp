// Structured result of one exploration pipeline run: the selected cuts with
// their metrics, the aggregated enumeration statistics, speedup and AFU-area
// accounting, validation outcomes, and wall-clock timings — all JSON
// round-trippable so benches, dashboards, and CI consume one format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/counters.hpp"
#include "core/constraints.hpp"
#include "core/selection.hpp"
#include "support/json.hpp"

namespace isex {

/// One selected cut, flattened for serialization.
struct CutReport {
  int block_index = 0;
  std::string block;       // DFG name of the block
  double merit = 0.0;      // freq-weighted estimated cycles saved
  CutMetrics metrics;
  std::string nodes;       // cut bit vector over the block's node ids ("0101…")
};

/// One synthesized AFU (filled when the request asks for AFU construction).
struct AfuReport {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  int latency_cycles = 0;
  double area_macs = 0.0;
};

/// End-to-end rewrite validation (filled when the request asks for it).
struct ValidationReport {
  bool rewritten = false;
  bool bit_exact = false;
  /// Every synthesized custom op executed exactly as often as its block did
  /// in the baseline profile (false until a verifying rewrite ran).
  bool counts_match = false;
  /// Measured custom-op executions, summed over the synthesized ops.
  std::uint64_t custom_invocations = 0;
  std::uint64_t cycles_before = 0;
  std::uint64_t cycles_after = 0;
  double measured_speedup = 0.0;  // cycles_before / cycles_after
};

struct ReportTimings {
  /// Wall time of resolving an ir_text document to its workload, before
  /// the clock the other fields read starts: the load (parse, verify,
  /// interpreter probe, fingerprint), or only the digest and lookup when the
  /// load memo knows the document. A run that then loads the document
  /// anyway counts that load in extract_ms or emit_ms, as it counts a
  /// registry kernel's build. Absent when the request named a registry
  /// kernel or graphs.
  std::optional<double> load_ms;
  double extract_ms = 0.0;   // preprocess + profile + DFG extraction
  double identify_ms = 0.0;  // identification + selection
  double emit_ms = 0.0;      // AFU construction + rewrite-verify + emission
  double total_ms = 0.0;
};

/// One emitted artifact, flattened for serialization (the bytes themselves
/// live on disk / in the emission result, not in the report).
struct ArtifactReport {
  std::string emitter;
  std::string path;   // relative to the artifact tree root
  std::uint64_t bytes = 0;
  std::string hash;   // 16-hex-digit content hash (artifact_hash_hex)
};

/// How many AFUs one application's wrapper instantiates.
struct AfuInstantiationReport {
  std::string workload;
  int count = 0;
};

/// What the emission backends produced for this run.
struct EmissionReport {
  std::vector<std::string> targets;
  std::string out_dir;  // empty when artifacts were not written to disk
  bool verify_rewrites = false;
  std::vector<ArtifactReport> artifacts;
  std::vector<AfuInstantiationReport> afu_instantiations;
};

/// What the Explorer's ResultCache did for this run (counter deltas, not
/// lifetime totals).
struct CacheReport {
  bool enabled = true;  // false when the request opted out (use_cache = false)
  CacheCounters counters;
};

/// What the identification engine's subtree-parallel runner did for this
/// run (see RunOptions::subtree_split_depth). Serialized only when
/// subtree parallelism was requested — default-request reports are
/// unchanged on disk, and cache-warm runs (which skip the searches) stay
/// byte-comparable to cold ones.
struct EngineReport {
  /// The requested split depth (0 = serial engine only).
  int subtree_split_depth = 0;
  /// Subtree tasks dispatched across all split searches, eager plus
  /// donated (see SearchEngineStats::subtree_tasks).
  std::uint64_t subtree_tasks = 0;
  /// Identification searches that split into subtree tasks.
  std::uint64_t split_searches = 0;
  /// Identification searches that ran serially (cache hits excluded): split
  /// disabled for them, the graph was smaller than the split depth produces
  /// tasks for, or branch-and-bound forced the serial engine.
  std::uint64_t serial_searches = 0;
};

/// The sections both report types end with, in their serialized order: what
/// the emission backends produced, wall-clock timings, the cache's counter
/// deltas, the subtree runner's counters, and whether the run was cut short.
struct RunSections {
  EmissionReport emission;
  ReportTimings timings;
  CacheReport cache;
  EngineReport engine;

  /// True when the run was cut short (deadline, watchdog, client cancel):
  /// the selection is the best one found before the cancellation, not the
  /// full search's answer, and emission was skipped. Serialized only when
  /// set — complete reports keep their historical byte layout.
  bool partial = false;
  /// Why the run was cut short (e.g. "deadline_exceeded"); empty when
  /// `partial` is false.
  std::string partial_reason;
};

/// Appends `sections` to the report object `j` (engine only when subtree
/// parallelism was requested, partial only on cut-short runs).
void write_run_sections(const RunSections& sections, Json& j);
/// Inverse of write_run_sections; fields that archived reports predate
/// (emission, emit_ms, cross_workload_hits, engine, partial) default.
void read_run_sections(const Json& j, RunSections& sections);

/// A selected cut's metrics, flattened into its report object.
void write_cut_metrics(const CutMetrics& metrics, Json& j);
CutMetrics cut_metrics_from_json(const Json& j);

Json to_json(const ValidationReport& v);
ValidationReport validation_from_json(const Json& j);

/// One application's exploration outcome; the trailing sections are the
/// RunSections every report carries.
struct ExplorationReport : RunSections {
  std::string workload;  // empty for user-provided graphs
  std::string scheme;
  Constraints constraints;
  int num_instructions = 0;
  int num_threads = 1;

  int num_blocks = 0;  // profiled blocks with candidates
  double base_cycles = 0.0;
  double total_merit = 0.0;
  double estimated_speedup = 1.0;

  std::uint64_t identification_calls = 0;
  EnumerationStats stats;  // aggregated over every identification call

  std::vector<CutReport> cuts;
  std::vector<AfuReport> afus;
  double afu_area_macs = 0.0;  // summed over `afus`

  ValidationReport validation;

  /// The raw selection (bit vectors usable against the extracted DFGs); not
  /// serialized.
  SelectionResult selection;

  Json to_json() const;
  std::string to_json_string(int indent = 2) const { return to_json().dump(indent); }
  /// Inverse of to_json(); throws isex::Error on missing/mistyped fields.
  static ExplorationReport from_json(const Json& json);
};

}  // namespace isex
