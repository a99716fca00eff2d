// SchemeInputs is an aggregate that perfbench's traced replay
// (perfbench/src/replay.cpp) initialises from 12 positional values: the five
// leading members, then the seven run values, which brace elision places in
// the nested CutSearchOptions. The member order of CutSearchOptions is thus
// part of the interface, and this test pins it in tier-1.
#include <gtest/gtest.h>

#include <span>

#include "api/scheme.hpp"
#include "cache/result_cache.hpp"
#include "core/search_tables.hpp"
#include "support/cancellation.hpp"

namespace isex {
namespace {

TEST(SchemeInputs, PositionalInitialiserFillsTheRunContext) {
  WorkloadBundle bundle;
  const LatencyModel latency = LatencyModel::standard_018um();
  const Constraints constraints;
  AreaSelectOptions area;
  area.max_area_macs = 2.5;
  ThreadPool pool(1);
  ResultCache cache;
  CacheCounters local;
  SearchEngineStats engine_stats;
  BudgetGate gate(100);
  CancelToken cancel;
  // The replay's shape, with a distinct non-null value in every slot (the
  // replay passes nullptr for the gate and the token).
  const SchemeInputs inputs{std::span<const WorkloadBundle>(&bundle, 1),
                            latency,
                            constraints,
                            7,
                            area,
                            &pool,
                            &cache,
                            &local,
                            10,
                            &engine_stats,
                            &gate,
                            &cancel};
  EXPECT_EQ(inputs.bundles.data(), &bundle);
  EXPECT_EQ(&inputs.latency, &latency);
  EXPECT_EQ(&inputs.constraints, &constraints);
  EXPECT_EQ(inputs.num_instructions, 7);
  EXPECT_EQ(inputs.area.max_area_macs, 2.5);
  EXPECT_EQ(inputs.search.executor, &pool);
  EXPECT_EQ(inputs.search.cache, &cache);
  EXPECT_EQ(inputs.search.cache_counters, &local);
  EXPECT_EQ(inputs.search.split_depth, 10);
  EXPECT_EQ(inputs.search.stats, &engine_stats);
  EXPECT_EQ(inputs.search.budget, &gate);
  EXPECT_EQ(inputs.search.cancel, &cancel);
}

}  // namespace
}  // namespace isex
