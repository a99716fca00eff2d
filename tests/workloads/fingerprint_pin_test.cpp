// Literal content fingerprints. The other tests compare the builder and
// text load paths with each other, which a drifting hash passes; these pin
// the values themselves, and check each against the way an outside tool
// recomputes it: FNV-1a over module_to_string, then the entry name and the
// arguments folded in.
#include <gtest/gtest.h>

#include <string>

#include "ir/printer.hpp"
#include "support/hash.hpp"
#include "text/corpus_gen.hpp"
#include "text/workload_file.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

struct KeyPin {
  const char* workload;
  const char* cache_key;
};

const KeyPin kRegistryKeys[] = {
    {"adpcmdecode", "adpcmdecode#ef6e868833ff75e0"},
    {"adpcmencode", "adpcmencode#5a5083143044e847"},
    {"g721", "g721#c69d8565b6eaba9b"},
    {"gsm", "gsm#0062d44815bd729f"},
    {"crc32", "crc32#ebaa77a1ec8c4346"},
    {"sha1", "sha1#690f81cb5091a24a"},
    {"viterbi", "viterbi#430f23f4903caa26"},
    {"rgb2yuv", "rgb2yuv#3ee9b188e2faed7b"},
    {"fir", "fir#cdb93220cd3dff4d"},
    {"sobel", "sobel#028f5aa14af82b52"},
    {"blowfish", "blowfish#15b72e092ba59fac"},
    {"idct", "idct#f6c360290d8d44b2"},
};

// corpus_gen kernels of 4096 ops, seeds 1001-1003.
const KeyPin kGeneratedKeys[] = {
    {"gen1001", "gen1001#06acac26be604a8f"},
    {"gen1002", "gen1002#e9692539d65b1399"},
    {"gen1003", "gen1003#2736a8bf58279b26"},
};

/// The fingerprint as computed from the canonical print in one piece.
std::uint64_t recomputed_fingerprint(const Workload& w) {
  std::uint64_t h = hash_bytes(module_to_string(w.module()));
  h = hash_combine(h, hash_bytes(w.entry_name()));
  for (const std::int32_t a : w.args()) {
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
  }
  return h;
}

void expect_pinned(const Workload& w, const KeyPin& pin) {
  EXPECT_EQ(w.name(), pin.workload);
  EXPECT_EQ(w.cache_key(), pin.cache_key) << pin.workload;
  EXPECT_EQ(w.content_fingerprint(), recomputed_fingerprint(w)) << pin.workload;
}

TEST(FingerprintPins, RegistryWorkloadsKeepTheirCacheKeys) {
  for (const KeyPin& pin : kRegistryKeys) expect_pinned(find_workload(pin.workload), pin);
}

TEST(FingerprintPins, RegistryKeyTableMatchesBuiltKernels) {
  for (const std::string& name : workload_names()) {
    const std::string* key = registry_cache_key(name);
    ASSERT_NE(key, nullptr) << name;
    EXPECT_EQ(*key, find_workload(name).cache_key());
    EXPECT_EQ(registry_cache_key(name), key) << "one table entry per name";
  }
  for (const KeyPin& pin : kRegistryKeys) EXPECT_EQ(*registry_cache_key(pin.workload), pin.cache_key);
  EXPECT_EQ(registry_cache_key("no-such-kernel"), nullptr);
  EXPECT_EQ(registry_cache_key("../tests/corpus/crc32.isex"), nullptr);
}

TEST(FingerprintPins, ParsedTwinsKeepTheRegistryCacheKeys) {
  for (const KeyPin& pin : kRegistryKeys) {
    expect_pinned(load_workload_string(dump_workload(find_workload(pin.workload))), pin);
  }
}

TEST(FingerprintPins, GeneratedKernelsKeepTheirCacheKeys) {
  for (std::size_t i = 0; i < std::size(kGeneratedKeys); ++i) {
    CorpusGenConfig config;
    config.seed = 1001 + i;
    config.num_ops = 4096;
    const Workload built = generate_workload(config);
    expect_pinned(built, kGeneratedKeys[i]);
    expect_pinned(load_workload_string(dump_workload(built)), kGeneratedKeys[i]);
  }
}

}  // namespace
}  // namespace isex
