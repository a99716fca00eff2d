// Golden-file pins for the emitted artifacts: the Verilog module and the
// behavioural-C intrinsics header of the first selected instruction of crc32
// and adpcmdecode under the fig11 configuration (Nin=4/Nout=2, iterative,
// result-preserving accelerations on) must be byte-identical to the files in
// tests/golden/, for any thread count, cache mode, and through both the
// single-workload and the one-bundle portfolio path — deterministic emission
// is what makes the CI diff against these files meaningful.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/explorer.hpp"
#include "support/hash.hpp"

#ifndef ISEX_SOURCE_DIR
#error "ISEX_SOURCE_DIR must point at the repository root (set by CMake)"
#endif

namespace isex {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(ISEX_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing artifact " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string artifact_hash(const EmissionReport& emission, const std::string& path) {
  for (const ArtifactReport& a : emission.artifacts) {
    if (a.path == path) return a.hash;
  }
  return {};
}

ExplorationRequest golden_request(const std::string& workload) {
  ExplorationRequest request;
  request.workload = workload;
  request.scheme = "iterative";
  request.constraints.max_inputs = 4;
  request.constraints.max_outputs = 2;
  request.constraints.branch_and_bound = true;
  request.constraints.prune_permanent_inputs = true;
  request.num_instructions = 1;
  request.emission.targets = {"verilog", "c-intrinsics"};
  return request;
}

class GoldenEmission : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenEmission, VerilogAndIntrinsicsAreByteIdenticalToTheGoldenFiles) {
  const std::string workload = GetParam();
  const std::string golden_v = read_golden(workload + "_isex0.v");
  const std::string golden_h = read_golden(workload + "_intrinsics.h");
  ASSERT_FALSE(golden_v.empty());
  ASSERT_FALSE(golden_h.empty());

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / ("isex_golden_" + workload);
  fs::remove_all(dir);

  const Explorer explorer;
  ExplorationRequest request = golden_request(workload);
  request.emission.out_dir = dir.string();
  const ExplorationReport serial = explorer.run(request);
  ASSERT_EQ(serial.afus.size(), 1u);
  EXPECT_EQ(serial.afus[0].name, "isex0");
  EXPECT_EQ(read_file(dir / "afu/isex0.v"), golden_v) << workload;
  EXPECT_EQ(read_file(dir / workload / (workload + "_intrinsics.h")), golden_h) << workload;
  fs::remove_all(dir);
  request.emission.out_dir.clear();

  // Thread count and cache mode must not move a single byte.
  const std::string header = workload + "/" + workload + "_intrinsics.h";
  const std::string golden_v_hash = artifact_hash_hex(hash_bytes(golden_v));
  const std::string golden_h_hash = artifact_hash_hex(hash_bytes(golden_h));
  request.num_threads = 4;
  const ExplorationReport parallel = explorer.run(request);
  EXPECT_EQ(artifact_hash(parallel.emission, "afu/isex0.v"), golden_v_hash);
  EXPECT_EQ(artifact_hash(parallel.emission, header), golden_h_hash);
  request.num_threads = 1;
  request.use_cache = false;
  const ExplorationReport uncached = explorer.run(request);
  EXPECT_EQ(artifact_hash(uncached.emission, "afu/isex0.v"), golden_v_hash);
  EXPECT_EQ(artifact_hash(uncached.emission, header), golden_h_hash);

  // The one-bundle portfolio path (what `portfolio_explore <workload>
  // --ninstr 1 --emit-dir` runs in CI) emits the same bytes.
  MultiExplorationRequest multi;
  multi.workloads = {{.workload = workload}};
  multi.scheme = "joint-iterative";
  multi.constraints = request.constraints;
  multi.num_instructions = 1;
  multi.emission.targets = {"verilog", "c-intrinsics"};
  const PortfolioReport portfolio = explorer.run_portfolio(multi);
  EXPECT_EQ(artifact_hash(portfolio.emission, "afu/isex0.v"), golden_v_hash) << workload;
  EXPECT_EQ(artifact_hash(portfolio.emission, header), golden_h_hash) << workload;
}

INSTANTIATE_TEST_SUITE_P(Kernels, GoldenEmission,
                         ::testing::Values("crc32", "adpcmdecode"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace isex
