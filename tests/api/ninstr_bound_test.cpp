// Ninstr arrives from the wire with no upper bound. The optimal-dp
// allocation table and the area scheme's knapsack are sized by what their
// inputs can fill, not by Ninstr, so a huge Ninstr selects exactly what a
// bounded one does, in bounded memory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "../support/address_space.hpp"
#include "api/explorer.hpp"

namespace isex {
namespace {

/// The cuts a report selected, as comparable text.
std::string selected(const ExplorationReport& report) {
  std::string out = std::to_string(report.total_merit);
  for (const CutReport& cut : report.cuts) {
    out += " | " + std::to_string(cut.block_index) + " " + cut.nodes + " " +
           std::to_string(cut.merit);
  }
  return out;
}

ExplorationReport run_crc32(const std::string& scheme, int num_instructions) {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = scheme;
  request.num_instructions = num_instructions;
  request.use_cache = false;
  return Explorer().run(request);
}

TEST(NinstrBoundDeathTest, HugeNinstrSelectsAsTheBoundedOneUnderAnAddressSpaceCap) {
#ifdef ISEX_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than the cap allows";
#else
  // Sized by Ninstr, the two tables of optimal-dp alone would map ~3.6 GB
  // at Ninstr 10^8 on crc32's two blocks, and the knapsack far more.
  EXPECT_EXIT(
      {
        // crc32 has two blocks, so optimal-dp saturates at 2 x 8 cuts; the
        // area scheme's candidate pool holds fewer.
        const int bounded = 16;
        const ExplorationReport dp = run_crc32("optimal-dp", bounded);
        const ExplorationReport area = run_crc32("area", bounded);
        if (dp.num_blocks != 2 || dp.cuts.empty() || area.cuts.empty()) std::_Exit(5);
        if (!cap_address_space(std::size_t{256} << 20)) std::_Exit(4);
        try {
          const int huge = 100'000'000;
          if (selected(run_crc32("optimal-dp", huge)) != selected(dp)) std::_Exit(2);
          if (selected(run_crc32("area", huge)) != selected(area)) std::_Exit(2);
          std::_Exit(0);
        } catch (const std::exception&) {  // bad_alloc under the cap
          std::_Exit(3);
        }
      },
      testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace isex
