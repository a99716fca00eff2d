// Ninstr and the area budget arrive from the wire with no upper bound. The
// optimal-dp allocation table and the area knapsack are sized by what their
// inputs can fill, not by Ninstr or the budget, so a huge Ninstr or budget
// selects exactly what a bounded one does, in bounded memory.
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

std::string selected(const PortfolioReport& report) {
  std::string out = std::to_string(report.total_weighted_merit);
  for (const PortfolioCutReport& cut : report.cuts) {
    out += " | " + std::to_string(cut.workload_index) + " " +
           std::to_string(cut.block_index) + " " + cut.nodes + " " +
           std::to_string(cut.weighted_merit);
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

ExplorationReport run_area_crc32(double max_area_macs) {
  ExplorationRequest request;
  request.workload = "crc32";
  request.scheme = "area";
  request.area.max_area_macs = max_area_macs;
  request.use_cache = false;
  return Explorer().run(request);
}

PortfolioReport run_merge_crc32_sha1(double max_area_macs) {
  MultiExplorationRequest request;
  request.workloads.resize(2);
  request.workloads[0].workload = "crc32";
  request.workloads[1].workload = "sha1";
  request.scheme = "merge-then-select";
  request.max_area_macs = max_area_macs;
  request.use_cache = false;
  return Explorer().run_portfolio(request);
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

TEST(AreaBudgetBoundDeathTest, HugeAreaBudgetsSelectAsAHundredMacsUnderAnAddressSpaceCap) {
#ifdef ISEX_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than the cap allows";
#else
  // At the default 0.002-MAC grid, 2e6 MACs is a 10^9-column knapsack
  // table and 1e9 MACs overflows an int count of grid cells; 100 MACs
  // already holds every candidate, so all three must select alike.
  EXPECT_EXIT(
      {
        const ExplorationReport area = run_area_crc32(100);
        const PortfolioReport merge = run_merge_crc32_sha1(100);
        if (area.cuts.empty() || merge.cuts.empty()) std::_Exit(5);
        if (!cap_address_space(std::size_t{256} << 20)) std::_Exit(4);
        try {
          for (const double budget : {2e6, 1e9}) {
            if (selected(run_area_crc32(budget)) != selected(area)) std::_Exit(2);
          }
          if (selected(run_merge_crc32_sha1(1e9)) != selected(merge)) std::_Exit(2);
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
