#include "workloads/workload.hpp"

#include <cstdio>
#include <iterator>
#include <mutex>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pipeline.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "text/workload_file.hpp"

namespace isex {

Workload::Workload(std::string name, std::unique_ptr<Module> module, std::string entry,
                   std::vector<std::int32_t> args, OutputReader read_outputs,
                   std::vector<std::int32_t> expected_outputs)
    : Workload(std::move(name), std::move(module), std::move(entry), std::move(args),
               std::move(read_outputs), std::move(expected_outputs), ModuleCheck::verify) {}

Workload::Workload(std::string name, std::unique_ptr<Module> module, std::string entry,
                   std::vector<std::int32_t> args, OutputReader read_outputs,
                   std::vector<std::int32_t> expected_outputs, ModuleCheck check)
    : name_(std::move(name)),
      module_(std::move(module)),
      entry_(std::move(entry)),
      args_(std::move(args)),
      read_outputs_(std::move(read_outputs)),
      expected_(std::move(expected_outputs)) {
  ISEX_CHECK(module_ != nullptr, "workload needs a module");
  ISEX_CHECK(module_->find_function(entry_) != nullptr, "missing entry " + entry_);
  if (check == ModuleCheck::verify) verify_module(*module_);

  // Content fingerprint over everything exploration observes: the canonical
  // module text (deterministic by construction), the entry point and the
  // arguments. Computed before any pass runs, so equal sources — builder
  // registry or parsed .isex twin — fingerprint equal.
  ByteHasher text;
  print_module(*module_, [&text](std::string_view piece) { text.update(piece); });
  std::uint64_t h = text.finish();
  h = hash_combine(h, hash_bytes(entry_));
  for (const std::int32_t a : args_) {
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
  }
  fingerprint_ = h;
}

std::string Workload::cache_key() const {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fingerprint_));
  return name_ + "#" + hex;
}

const Function& Workload::entry() const {
  const Function* fn = module_->find_function(entry_);
  ISEX_ASSERT(fn != nullptr, "entry vanished");
  return *fn;
}

std::vector<std::int32_t> Workload::run(ExecResult* exec, Profile* profile) const {
  Memory mem(*module_);
  Interpreter interp(*module_, mem);
  const ExecResult r = interp.run(entry(), args_, profile);
  if (exec != nullptr) *exec = r;
  return read_outputs_(*module_, mem);
}

void Workload::preprocess() {
  if (preprocessed_) return;
  run_standard_pipeline(*module_);
  verify_module(*module_);
  preprocessed_ = true;
}

std::vector<Dfg> Workload::extract_dfgs(const DfgOptions& options,
                                        double* base_cycles) const {
  Profile profile;
  Memory mem(*module_);
  Interpreter interp(*module_, mem);
  const ExecResult exec = interp.run(entry(), args_, &profile);
  if (base_cycles != nullptr) *base_cycles = static_cast<double>(exec.cycles);

  std::vector<Dfg> graphs;
  const Function& fn = entry();
  for (std::size_t b = 0; b < fn.num_blocks(); ++b) {
    const BlockId block{static_cast<std::uint32_t>(b)};
    const std::uint64_t freq = profile.count(block);
    if (freq == 0) continue;
    Dfg g = Dfg::from_block(*module_, fn, block, static_cast<double>(freq), options);
    if (g.candidates().empty()) continue;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

double Workload::base_cycles() const {
  ExecResult r;
  run(&r);
  return static_cast<double>(r.cycles);
}

namespace {

// Static name -> factory table so lookups by name need not materialize (and
// verify) every registered module.
struct WorkloadEntry {
  const char* name;
  Workload (*make)();
};

constexpr WorkloadEntry kWorkloadRegistry[] = {
    {"adpcmdecode", make_adpcm_decode},
    {"adpcmencode", make_adpcm_encode},
    {"g721", make_g721_quan},
    {"gsm", make_gsm_add},
    {"crc32", make_crc32},
    {"sha1", make_sha1_round},
    {"viterbi", make_viterbi_acs},
    {"rgb2yuv", make_rgb2yuv},
    {"fir", make_fir},
    {"sobel", make_sobel},
    {"blowfish", make_blowfish},
    {"idct", make_idct_row},
};

}  // namespace

std::vector<Workload> all_workloads() {
  std::vector<Workload> w;
  for (const WorkloadEntry& entry : kWorkloadRegistry) w.push_back(entry.make());
  return w;
}

std::vector<Workload> fig11_workloads() {
  std::vector<Workload> w;
  w.push_back(make_adpcm_decode());
  w.push_back(make_adpcm_encode());
  w.push_back(make_g721_quan());
  return w;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadEntry& entry : kWorkloadRegistry) names.emplace_back(entry.name);
  return names;
}

Workload find_workload(const std::string& name) {
  // Names that look like paths load from disk: a file path works anywhere a
  // registry name does (CLI flags, portfolio lists, corpus sweeps).
  if (name.find('/') != std::string::npos ||
      (name.size() > 5 && name.ends_with(".isex"))) {
    return load_workload_file(name);
  }
  for (const WorkloadEntry& entry : kWorkloadRegistry) {
    if (name == entry.name) {
      Workload w = entry.make();
      ISEX_ASSERT(w.name() == name, "workload registry name mismatch");
      return w;
    }
  }
  std::string known;
  for (const WorkloadEntry& entry : kWorkloadRegistry) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw Error("unknown workload '" + name + "' (registered: " + known + ")");
}

const std::string* registry_cache_key(const std::string& name) {
  struct Key {
    std::once_flag built;
    std::string key;
  };
  static Key keys[std::size(kWorkloadRegistry)];
  for (std::size_t i = 0; i < std::size(kWorkloadRegistry); ++i) {
    if (name != kWorkloadRegistry[i].name) continue;
    std::call_once(keys[i].built, [i] { keys[i].key = kWorkloadRegistry[i].make().cache_key(); });
    return &keys[i].key;
  }
  return nullptr;
}

}  // namespace isex
