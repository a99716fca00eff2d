// Workload registry: hand-translated MediaBench-style kernels (paper
// Section 7 evaluates on a MediaBench subset compiled through MachSUIF).
//
// Each workload owns a Module with one entry function, stages its input
// data into the module's memory segments, and carries a native reference
// implementation so the IR translation is bit-exact-tested. The driver runs
// the standard preprocessing pipeline (if-conversion etc.), profiles the
// kernel with the interpreter, and extracts frequency-weighted DFGs — the
// inputs the identification algorithms consume.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "interp/interpreter.hpp"
#include "ir/module.hpp"

namespace isex {

class Workload {
 public:
  using OutputReader = std::function<std::vector<std::int32_t>(const Module&, const Memory&)>;

  /// Verifies the module (ir/verifier.hpp) and fingerprints its content.
  /// load_workload_string hands over modules parse_module has verified
  /// already, and fingerprints them without a second verify.
  Workload(std::string name, std::unique_ptr<Module> module, std::string entry,
           std::vector<std::int32_t> args, OutputReader read_outputs,
           std::vector<std::int32_t> expected_outputs);

  const std::string& name() const { return name_; }
  Module& module() { return *module_; }
  const Module& module() const { return *module_; }
  const Function& entry() const;
  const std::string& entry_name() const { return entry_; }
  const std::vector<std::int32_t>& args() const { return args_; }
  const std::vector<std::int32_t>& expected_outputs() const { return expected_; }
  const OutputReader& read_outputs() const { return read_outputs_; }

  /// Hash of the workload's observable content at construction: canonical
  /// module text, entry name and arguments. Two workloads with the same
  /// fingerprint explore identically, whatever their names. The text is
  /// hashed as the printer produces it, never held whole; the value is
  /// hash_bytes(module_to_string(module)) folded with the entry and args.
  std::uint64_t content_fingerprint() const { return fingerprint_; }

  /// Extraction-cache key: "name#<16-hex fingerprint>". Keying caches on
  /// content (not just the name) lets a file-loaded twin of a registry
  /// kernel share warm entries, and stops a divergent module served under a
  /// registry name from poisoning that name's cache.
  std::string cache_key() const;

  /// Runs the kernel on a fresh memory image; returns outputs read back.
  std::vector<std::int32_t> run(ExecResult* exec = nullptr, Profile* profile = nullptr) const;

  /// Runs the standard pass pipeline on the module (idempotent).
  void preprocess();

  /// Profiles the kernel and extracts one frequency-weighted DFG per
  /// (reachable, executed) basic block of the entry function. When
  /// `base_cycles` is given it receives the cycle count of the profiling run
  /// (identical to base_cycles(), without a second execution).
  std::vector<Dfg> extract_dfgs(const DfgOptions& options = {},
                                double* base_cycles = nullptr) const;

  /// Measured single-issue base cycles of one run (after preprocess()).
  double base_cycles() const;

  /// True once the module was transformed beyond the standard preprocessing
  /// (e.g. a selection was rewritten into it): extraction results no longer
  /// describe the pristine registry kernel of this name, so caches keyed by
  /// the name must not be fed from this instance.
  bool mutated() const { return mutated_; }
  void mark_mutated() { mutated_ = true; }

 private:
  friend Workload load_workload_string(std::string_view text);
  enum class ModuleCheck { verify, already_verified };
  Workload(std::string name, std::unique_ptr<Module> module, std::string entry,
           std::vector<std::int32_t> args, OutputReader read_outputs,
           std::vector<std::int32_t> expected_outputs, ModuleCheck check);

  std::string name_;
  std::unique_ptr<Module> module_;
  std::string entry_;
  std::vector<std::int32_t> args_;
  OutputReader read_outputs_;
  std::vector<std::int32_t> expected_;
  std::uint64_t fingerprint_ = 0;
  bool preprocessed_ = false;
  bool mutated_ = false;
};

// --- kernel builders -------------------------------------------------------
// The paper's Fig. 11 benchmarks:
Workload make_adpcm_decode();  // IMA ADPCM decoder (the paper's Fig. 3 block)
Workload make_adpcm_encode();  // IMA ADPCM encoder
Workload make_g721_quan();     // G.721 fmult/quan-style quantiser update

// Additional kernels populating the Fig. 8 block-size spectrum:
Workload make_gsm_add();       // GSM saturated add/sub section
Workload make_crc32();         // bitwise CRC-32 (shift/xor ladder)
Workload make_sha1_round();    // SHA-1 round function (rotate/majority mix)
Workload make_viterbi_acs();   // Viterbi add-compare-select butterfly
Workload make_rgb2yuv();       // colour-space conversion (disconnected, SIMD-like)
Workload make_fir();           // 8-tap FIR filter
Workload make_sobel();         // Sobel 3x3 gradient magnitude
Workload make_blowfish();      // Feistel rounds over S-box ROMs
Workload make_idct_row();      // 8-point fixed-point IDCT row pass

/// All registered workloads (fresh instances).
std::vector<Workload> all_workloads();
/// The paper's three Fig. 11 benchmarks.
std::vector<Workload> fig11_workloads();
/// Names of all registered workloads, in registry order.
std::vector<std::string> workload_names();
/// A fresh instance of the named workload; throws isex::Error (listing the
/// registered names) when unknown.
Workload find_workload(const std::string& name);
/// find_workload(name).cache_key() for a registry kernel, built and
/// verified once per process (the make_* kernels are deterministic), so a warm
/// request can find its graphs without building the kernel. Null when
/// `name` is not a registry name (a file path, or unknown).
const std::string* registry_cache_key(const std::string& name);

}  // namespace isex
