// Literal memo keys. The memo keys a graph by dfg_fingerprint(g).exact, the
// hash of its id-ordered representation, and a persisted snapshot stores
// that value as hex; an old snapshot keeps hitting only while those values
// hold. The pins cover every registry block as extracted, the same blocks
// after each Iterative collapse (the memo keys a warm request walks), and
// a few random DAGs. A mismatch prints the re-recorded row.
//
// Recorded once collapse() kept every field of its survivors (rom_words
// included), before the structural half of the fingerprint was removed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "cache/fingerprint.hpp"
#include "core/iterative_select.hpp"
#include "dfg/random_dag.hpp"
#include "service/protocol.hpp"
#include "support/hash.hpp"
#include "workloads/workload.hpp"

namespace isex {
namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string exact_key(const Dfg& g) { return hex16(dfg_fingerprint(g).exact); }

struct BlockPin {
  const char* workload;
  bool rom;                        // DfgOptions::allow_rom_loads
  std::vector<const char*> exact;  // one per extracted block
};

struct ChainPin {
  const char* row;     // "<workload> <plain|rom> <nin>/<nout>"
  int entries;         // memo entries after Iterative at Ninstr 16
  const char* digest;  // hash_bytes of their "exact" members, in snapshot order
};

// clang-format off
const BlockPin kBlockPins[] = {
    {"adpcmdecode", false, {"926095739c4f19d4", "ae512bfc65f2b192", "70e1f0588c612ce0"}},
    {"adpcmdecode", true, {"d498817f5a5151ff", "ae512bfc65f2b192", "df2408585fc59d9a"}},
    {"adpcmencode", false, {"926095739c4f19d4", "ae512bfc65f2b192", "fac8a2c81521abab"}},
    {"adpcmencode", true, {"d498817f5a5151ff", "ae512bfc65f2b192", "1c069cb244e254e2"}},
    {"g721", false, {"a2104ca71b5d1fec", "7bca20f87d8f6033", "ee2b3ff52b7abac7", "081f0f6aa70012a3", "fe001ad412e92153", "8b67e88e7c244844"}},
    {"g721", true, {"a2104ca71b5d1fec", "7bca20f87d8f6033", "ee2b3ff52b7abac7", "37001367fbdd52bd", "fe001ad412e92153", "8b67e88e7c244844"}},
    {"gsm", false, {"9d911a5f19d9c927", "b1b5d93bc52a376c"}},
    {"gsm", true, {"9d911a5f19d9c927", "b1b5d93bc52a376c"}},
    {"crc32", false, {"bfccdce2e80bb7a6", "8924192f6d34675d"}},
    {"crc32", true, {"bfccdce2e80bb7a6", "8924192f6d34675d"}},
    {"sha1", false, {"6dc1202aa380b26e", "a77ae459a51a2175"}},
    {"sha1", true, {"6dc1202aa380b26e", "a77ae459a51a2175"}},
    {"viterbi", false, {"d8b9fd79a41b2642", "a38a52001b251b62"}},
    {"viterbi", true, {"d8b9fd79a41b2642", "a38a52001b251b62"}},
    {"rgb2yuv", false, {"a2104ca71b5d1fec", "0a19a7033cf0437b"}},
    {"rgb2yuv", true, {"a2104ca71b5d1fec", "0a19a7033cf0437b"}},
    {"fir", false, {"2b1a6a58b979c460", "f51c4553f2887254"}},
    {"fir", true, {"2b1a6a58b979c460", "f51c4553f2887254"}},
    {"sobel", false, {"ac57c1e939153f79", "4b2f7b0c61fbe4a2"}},
    {"sobel", true, {"ac57c1e939153f79", "4b2f7b0c61fbe4a2"}},
    {"blowfish", false, {"6dc1202aa380b26e", "d1739c339961bfd3"}},
    {"blowfish", true, {"6dc1202aa380b26e", "53df2ed851f1716f"}},
    {"idct", false, {"72a964bad576b24a", "aca6bbf3f1da4bc9"}},
    {"idct", true, {"72a964bad576b24a", "aca6bbf3f1da4bc9"}},
};

const ChainPin kChainPins[] = {
    {"adpcmdecode plain 2/1", 6, "2b392b308895db9b"},
    {"adpcmdecode plain 4/2", 6, "f577438d22ebf5da"},
    {"adpcmdecode plain 8/4", 4, "5c541fd617c90821"},
    {"adpcmdecode rom 2/1", 8, "840384702145a8e2"},
    {"adpcmdecode rom 4/2", 7, "835036af3d9c4839"},
    {"adpcmdecode rom 8/4", 6, "8a91dd24851de39e"},
    {"adpcmencode plain 2/1", 8, "7287910b2992ec8e"},
    {"adpcmencode plain 4/2", 6, "6acdc3ee50a9a089"},
    {"adpcmencode plain 8/4", 5, "0e06c31bacbf7071"},
    {"adpcmencode rom 2/1", 10, "19f011907e3e7122"},
    {"adpcmencode rom 4/2", 7, "31b54b9d78045868"},
    {"adpcmencode rom 8/4", 6, "e0e87cb0540ac937"},
    {"g721 plain 2/1", 12, "c31d6c9466cc7598"},
    {"g721 plain 4/2", 9, "c97996a14f311537"},
    {"g721 plain 8/4", 8, "0e263703d989a1cc"},
    {"g721 rom 2/1", 13, "22f1e00e446a5783"},
    {"g721 rom 4/2", 10, "005242500eec7824"},
    {"g721 rom 8/4", 9, "1b5de2a4ca147520"},
    {"gsm plain 2/1", 3, "a6867772491c3be9"},
    {"gsm plain 4/2", 4, "a27b34cda368ae02"},
    {"gsm plain 8/4", 3, "8d413fd6f172b1b3"},
    {"gsm rom 2/1", 3, "a6867772491c3be9"},
    {"gsm rom 4/2", 4, "a27b34cda368ae02"},
    {"gsm rom 8/4", 3, "8d413fd6f172b1b3"},
    {"crc32 plain 2/1", 3, "f66c6bd36b2347f7"},
    {"crc32 plain 4/2", 3, "1c28e8749cfd80a3"},
    {"crc32 plain 8/4", 3, "85c0b0ccaa3a4bde"},
    {"crc32 rom 2/1", 3, "f66c6bd36b2347f7"},
    {"crc32 rom 4/2", 3, "1c28e8749cfd80a3"},
    {"crc32 rom 8/4", 3, "85c0b0ccaa3a4bde"},
    {"sha1 plain 2/1", 10, "12f208a7f50f16a9"},
    {"sha1 plain 4/2", 7, "2d5db9f4be751638"},
    {"sha1 plain 8/4", 4, "868abd0c42590c7a"},
    {"sha1 rom 2/1", 10, "12f208a7f50f16a9"},
    {"sha1 rom 4/2", 7, "2d5db9f4be751638"},
    {"sha1 rom 8/4", 4, "868abd0c42590c7a"},
    {"viterbi plain 2/1", 4, "e7e2b0316355b9be"},
    {"viterbi plain 4/2", 5, "48cc0bcc28014b72"},
    {"viterbi plain 8/4", 4, "820216dfe4ca5d9f"},
    {"viterbi rom 2/1", 4, "e7e2b0316355b9be"},
    {"viterbi rom 4/2", 5, "48cc0bcc28014b72"},
    {"viterbi rom 8/4", 4, "820216dfe4ca5d9f"},
    {"rgb2yuv plain 2/1", 9, "269bf0699b12ece6"},
    {"rgb2yuv plain 4/2", 7, "3caaa039b2467e1e"},
    {"rgb2yuv plain 8/4", 5, "6ecd23b0f9397ac8"},
    {"rgb2yuv rom 2/1", 9, "269bf0699b12ece6"},
    {"rgb2yuv rom 4/2", 7, "3caaa039b2467e1e"},
    {"rgb2yuv rom 8/4", 5, "6ecd23b0f9397ac8"},
    {"fir plain 2/1", 9, "05f4643dfffa9623"},
    {"fir plain 4/2", 9, "2a81082f4335b086"},
    {"fir plain 8/4", 5, "337aac8e75e03397"},
    {"fir rom 2/1", 9, "05f4643dfffa9623"},
    {"fir rom 4/2", 9, "2a81082f4335b086"},
    {"fir rom 8/4", 5, "337aac8e75e03397"},
    {"sobel plain 2/1", 13, "8e921b1bed1e771d"},
    {"sobel plain 4/2", 12, "8cc26073ca073c48"},
    {"sobel plain 8/4", 6, "53ed267793e5e56f"},
    {"sobel rom 2/1", 13, "8e921b1bed1e771d"},
    {"sobel rom 4/2", 12, "8cc26073ca073c48"},
    {"sobel rom 8/4", 6, "53ed267793e5e56f"},
    {"blowfish plain 2/1", 10, "6e36cecec1bd76c4"},
    {"blowfish plain 4/2", 11, "ed76478460322628"},
    {"blowfish plain 8/4", 7, "a606641c7b852063"},
    {"blowfish rom 2/1", 4, "beadf8cb9c54545c"},
    {"blowfish rom 4/2", 6, "b2bc3496a7f823d9"},
    {"blowfish rom 8/4", 4, "10260b57b0bed4f9"},
    {"idct plain 2/1", 17, "5c401e6b236caee1"},
    {"idct plain 4/2", 17, "a73c41efdd356fdd"},
    {"idct plain 8/4", 10, "b81e0038f68201d3"},
    {"idct rom 2/1", 17, "5c401e6b236caee1"},
    {"idct rom 4/2", 17, "a73c41efdd356fdd"},
    {"idct rom 8/4", 10, "b81e0038f68201d3"},
};

const char* const kRandomDagPins[] = {
    "d262256d72505d77",
    "994b98cedb9d2bc9",
    "2c24d32e8fa4a722",
    "b12025aa42d0f0de",
    "d9c999bc000a38eb",
};
// clang-format on

TEST(MemoKeyPins, RegistryBlocksKeepTheirExactKeys) {
  std::size_t row = 0;
  for (Workload& w : all_workloads()) {
    w.preprocess();
    for (const bool rom : {false, true}) {
      DfgOptions options;
      options.allow_rom_loads = rom;
      std::string recorded = std::string("    {\"") + w.name() + "\", " +
                             (rom ? "true" : "false") + ", {";
      std::vector<std::string> keys;
      for (const Dfg& g : w.extract_dfgs(options)) {
        keys.push_back(exact_key(g));
        recorded += std::string(keys.size() > 1 ? ", " : "") + "\"" + keys.back() + "\"";
      }
      recorded += "}},";
      const bool match = row < std::size(kBlockPins) && kBlockPins[row].workload == w.name() &&
                         kBlockPins[row].rom == rom &&
                         std::vector<std::string>(kBlockPins[row].exact.begin(),
                                                  kBlockPins[row].exact.end()) == keys;
      EXPECT_TRUE(match) << "re-recorded row:\n" << recorded;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kBlockPins));
}

TEST(MemoKeyPins, IterativeCollapseChainsKeepTheirExactKeys) {
  const LatencyModel latency = LatencyModel::standard_018um();
  std::size_t row = 0;
  for (Workload& w : all_workloads()) {
    w.preprocess();
    for (const bool rom : {false, true}) {
      DfgOptions options;
      options.allow_rom_loads = rom;
      const std::vector<Dfg> blocks = w.extract_dfgs(options);
      for (const auto& [nin, nout] : {std::pair{2, 1}, std::pair{4, 2}, std::pair{8, 4}}) {
        Constraints constraints;
        constraints.max_inputs = nin;
        constraints.max_outputs = nout;
        // Result-preserving accelerations: the same cuts, so the same chain.
        constraints.branch_and_bound = true;
        constraints.prune_permanent_inputs = true;
        ResultCache cache;
        select_iterative(blocks, latency, constraints, 16, {.cache = &cache});
        std::string keys;
        const Json snapshot = cache.to_json();
        for (const Json& e : snapshot.at("entries").as_array()) {
          keys += e.at("exact").as_string() + "\n";
        }
        const std::string name = w.name() + (rom ? " rom " : " plain ") + std::to_string(nin) +
                                 "/" + std::to_string(nout);
        const int entries = static_cast<int>(cache.num_entries());
        const std::string digest = hex16(hash_bytes(keys));
        const bool match = row < std::size(kChainPins) && name == kChainPins[row].row &&
                           entries == kChainPins[row].entries &&
                           digest == kChainPins[row].digest;
        EXPECT_TRUE(match) << "re-recorded row:\n    {\"" << name << "\", " << entries << ", \""
                           << digest << "\"},";
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kChainPins));
}

TEST(MemoKeyPins, RandomDagsKeepTheirExactKeys) {
  std::size_t row = 0;
  for (const int num_ops : {8, 16, 32, 64, 140}) {
    RandomDagConfig cfg;
    cfg.num_ops = num_ops;
    cfg.seed = 7919u * static_cast<std::uint64_t>(num_ops);
    const std::string key = exact_key(random_dag(cfg));
    EXPECT_TRUE(row < std::size(kRandomDagPins) && key == kRandomDagPins[row])
        << "re-recorded row:\n    \"" << key << "\",";
    ++row;
  }
  EXPECT_EQ(row, std::size(kRandomDagPins));
}

/// `report` without its cache counters, which tell a warm run from a cold one.
std::string without_cache_counters(const Json& report) {
  Json out = Json::object();
  for (const auto& [key, value] : report.as_object()) {
    if (key != "cache") out.set(key, value);
  }
  return out.dump();
}

/// Iterative and area over the Fig. 11 grid on crc32 and on blowfish with
/// its S-box ROMs admitted: the stable report JSON of every run, and the
/// memo misses they took.
std::string constraint_sweep(const Explorer& explorer, std::uint64_t* misses) {
  std::string reports;
  for (const char* workload : {"crc32", "blowfish"}) {
    for (const char* scheme : {"iterative", "area"}) {
      for (const auto& [nin, nout] :
           {std::pair{2, 1}, std::pair{3, 1}, std::pair{4, 1}, std::pair{2, 2},
            std::pair{4, 2}, std::pair{8, 4}}) {
        ExplorationRequest request;
        request.workload = workload;
        request.scheme = scheme;
        request.constraints.max_inputs = nin;
        request.constraints.max_outputs = nout;
        request.num_instructions = 16;
        request.area.max_area_macs = 0.5;
        request.dfg_options.allow_rom_loads = std::string(workload) == "blowfish";
        const ExplorationReport report = explorer.run(request);
        *misses += report.cache.counters.misses;
        reports += without_cache_counters(stable_report_json(report.to_json())) + "\n";
      }
    }
  }
  return reports;
}

TEST(MemoKeyPins, ParentFormatSnapshotWarmStartsASweepWithNoMisses) {
  const Explorer cold(LatencyModel::standard_018um());
  std::uint64_t cold_misses = 0;
  const std::string cold_reports = constraint_sweep(cold, &cold_misses);
  EXPECT_GT(cold_misses, 0u);

  // Snapshots written before the structural half of the fingerprint was
  // removed carry a "structural" member in every entry; a reader keys on
  // "exact" alone.
  const Json snapshot = cold.cache().to_json();
  Json entries = Json::array();
  for (const Json& e : snapshot.at("entries").as_array()) {
    Json old = Json::object();
    if (e.find("structural") == nullptr) old.set("structural", "0123456789abcdef");
    for (const auto& [key, value] : e.as_object()) old.set(key, value);
    entries.push_back(std::move(old));
  }
  Json parent_format = Json::object();
  parent_format.set("version", snapshot.at("version"));
  parent_format.set("algorithm", snapshot.at("algorithm"));
  parent_format.set("entries", std::move(entries));

  const Explorer warm(LatencyModel::standard_018um());
  warm.cache().merge_json(Json::parse(parent_format.dump()));
  EXPECT_EQ(warm.cache().num_entries(), cold.cache().num_entries());
  std::uint64_t warm_misses = 0;
  EXPECT_EQ(constraint_sweep(warm, &warm_misses), cold_reports);
  EXPECT_EQ(warm_misses, 0u);
}

}  // namespace
}  // namespace isex
