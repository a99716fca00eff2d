// Exact search-budget accounting across every engine (satellite of the
// word-parallel rebuild): the considered-cut count never overshoots the
// budget and lands on it exactly whenever the tree is larger — serially,
// in the retained reference engines, under subtree-parallel search with
// any thread count (the tasks share one atomic BudgetGate), and in the
// multiple-cut engine, alone or across searches sharing one external gate.
#include <gtest/gtest.h>

#include <vector>

#include "core/multi_cut.hpp"
#include "core/search_tables.hpp"
#include "core/single_cut.hpp"
#include "dfg/random_dag.hpp"
#include "support/parallel.hpp"

#include "reference_search.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Dfg budget_graph() {
  RandomDagConfig cfg;
  cfg.num_ops = 24;
  cfg.seed = 3;
  return random_dag(cfg);
}

Constraints budgeted(std::uint64_t budget) {
  Constraints c;
  c.max_inputs = 4;
  c.max_outputs = 2;
  c.search_budget = budget;
  return c;
}

TEST(BudgetGateTest, HandsOutExactlyTheBudgetUnderContention) {
  BudgetGate gate(1000);
  std::atomic<std::uint64_t> granted{0};
  ThreadPool pool(8);
  pool.parallel_for(16, [&](std::size_t) {
    for (int i = 0; i < 200; ++i) {
      if (gate.consume()) granted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // 16 x 200 = 3200 attempts against a budget of 1000: exactly 1000 grants.
  EXPECT_EQ(granted.load(), 1000u);
  EXPECT_TRUE(gate.exhausted());
  EXPECT_TRUE(gate.limited());
  EXPECT_EQ(gate.budget(), 1000u);
  EXPECT_EQ(gate.consumed(), 1000u);  // failed consumes never overshoot

  BudgetGate roomy(5000);
  EXPECT_TRUE(roomy.consume());
  EXPECT_FALSE(roomy.exhausted());

  BudgetGate unlimited(0);
  EXPECT_FALSE(unlimited.limited());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.consume());
  EXPECT_FALSE(unlimited.exhausted());
}

TEST(SearchBudget, CutsConsideredPinsExactlyAtTheCutoff) {
  const Dfg g = budget_graph();
  const std::uint64_t demand =
      find_best_cut(g, kLat, budgeted(0)).stats.cuts_considered;
  ASSERT_GT(demand, 100u);
  const std::uint64_t budget = demand / 3;

  const SingleCutResult serial = find_best_cut(g, kLat, budgeted(budget));
  EXPECT_TRUE(serial.stats.budget_exhausted);
  EXPECT_EQ(serial.stats.cuts_considered, budget);  // exact, not <=

  const SingleCutResult reference = find_best_cut_reference(g, kLat, budgeted(budget));
  EXPECT_TRUE(reference.stats.budget_exhausted);
  EXPECT_EQ(reference.stats.cuts_considered, budget);
  // The serial engine replays the reference bit for bit, budget included.
  EXPECT_EQ(serial.cut, reference.cut);
  EXPECT_EQ(serial.merit, reference.merit);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const SingleCutResult split =
        find_best_cut(g, kLat, budgeted(budget),
                      CutSearchOptions{.executor = &pool, .split_depth = 3});
    EXPECT_TRUE(split.stats.budget_exhausted) << threads << " threads";
    // Subtree tasks share one atomic gate: the aggregate count is exact and
    // deterministic for every thread count (which cuts filled the budget —
    // and hence the partial best — is only pinned serially).
    EXPECT_EQ(split.stats.cuts_considered, budget) << threads << " threads";
  }
}

TEST(SearchBudget, ExternalGatePinsTheAggregateAcrossSearches) {
  // The service's per-request budget: several identification searches draw
  // on ONE shared gate (CutSearchOptions::budget), so the request's
  // aggregate cuts_considered pins at min(demand, budget) exactly —
  // regardless of how the demand splits across blocks.
  std::vector<Dfg> graphs;
  std::uint64_t total_demand = 0;
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    RandomDagConfig cfg;
    cfg.num_ops = 20;
    cfg.seed = seed;
    graphs.push_back(random_dag(cfg));
    total_demand += find_best_cut(graphs.back(), kLat, budgeted(0)).stats.cuts_considered;
  }
  ASSERT_GT(total_demand, 300u);

  const std::uint64_t budget = total_demand / 2;
  BudgetGate gate(budget);
  CutSearchOptions options;
  options.budget = &gate;
  std::uint64_t aggregate = 0;
  for (const Dfg& g : graphs) {
    // Constraints say "unlimited": the external gate overrides them.
    aggregate += find_best_cut(g, kLat, budgeted(0), options).stats.cuts_considered;
  }
  EXPECT_EQ(aggregate, budget);  // exact, not <=
  EXPECT_EQ(gate.consumed(), budget);
  EXPECT_TRUE(gate.exhausted());

  // A roomy shared gate consumes exactly the demand and changes nothing.
  BudgetGate roomy(total_demand * 2);
  options.budget = &roomy;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const SingleCutResult shared = find_best_cut(graphs[i], kLat, budgeted(0), options);
    const SingleCutResult plain = find_best_cut(graphs[i], kLat, budgeted(0));
    EXPECT_EQ(shared.cut, plain.cut) << i;
    EXPECT_EQ(shared.merit, plain.merit) << i;
    EXPECT_EQ(shared.stats.cuts_considered, plain.stats.cuts_considered) << i;
    EXPECT_FALSE(shared.stats.budget_exhausted) << i;
  }
  EXPECT_EQ(roomy.consumed(), total_demand);
  EXPECT_FALSE(roomy.exhausted());

  // The external gate also overrides a per-search constraint budget: the
  // ticket pool is the request's, not the constraint's.
  BudgetGate wide(total_demand * 2);
  options.budget = &wide;
  const SingleCutResult overridden = find_best_cut(graphs[0], kLat, budgeted(10), options);
  EXPECT_FALSE(overridden.stats.budget_exhausted);
  EXPECT_GT(overridden.stats.cuts_considered, 10u);
}

TEST(SearchBudget, ExternalGateIsExactUnderSubtreeParallelism) {
  const Dfg g = budget_graph();
  const std::uint64_t demand = find_best_cut(g, kLat, budgeted(0)).stats.cuts_considered;
  const std::uint64_t budget = demand / 3;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    BudgetGate gate(budget);
    const SingleCutResult split =
        find_best_cut(g, kLat, budgeted(0),
                      CutSearchOptions{.executor = &pool, .split_depth = 3, .budget = &gate});
    EXPECT_TRUE(split.stats.budget_exhausted) << threads << " threads";
    EXPECT_EQ(split.stats.cuts_considered, budget) << threads << " threads";
    EXPECT_EQ(gate.consumed(), budget) << threads << " threads";
  }

  // A block whose tasks donate work before the gate runs dry. Depth 1
  // queues at most two eager tasks, and a budget of three donation quanta
  // (16,384 cuts each) or more lets one of them reach a donation on any
  // schedule.
  RandomDagConfig cfg;
  cfg.num_ops = 40;
  cfg.num_inputs = 8;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.1;
  cfg.seed = 40003;
  const Dfg big = random_dag(cfg);
  Constraints tight = budgeted(0);
  tight.max_inputs = 2;
  tight.max_outputs = 4;
  const std::uint64_t big_demand = find_best_cut(big, kLat, tight).stats.cuts_considered;
  const std::uint64_t big_budget = big_demand / 2;
  ASSERT_GT(big_budget, 3u * 16384);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    BudgetGate gate(big_budget);
    SearchEngineStats stats;
    const SingleCutResult split =
        find_best_cut(big, kLat, tight,
                      CutSearchOptions{
                          .executor = &pool, .split_depth = 1, .stats = &stats, .budget = &gate});
    EXPECT_GT(stats.donated_tasks.load(), 0u) << threads << " threads";
    EXPECT_TRUE(split.stats.budget_exhausted) << threads << " threads";
    EXPECT_EQ(split.stats.cuts_considered, big_budget) << threads << " threads";
    EXPECT_EQ(gate.consumed(), big_budget) << threads << " threads";
  }
}

TEST(SearchBudget, RoomyBudgetLeavesEverythingByteIdentical) {
  const Dfg g = budget_graph();
  const SingleCutResult unbudgeted = find_best_cut(g, kLat, budgeted(0));
  const std::uint64_t roomy = unbudgeted.stats.cuts_considered * 2;

  const SingleCutResult serial = find_best_cut(g, kLat, budgeted(roomy));
  EXPECT_FALSE(serial.stats.budget_exhausted);
  EXPECT_EQ(serial.stats.cuts_considered, unbudgeted.stats.cuts_considered);
  EXPECT_EQ(serial.cut, unbudgeted.cut);
  EXPECT_EQ(serial.merit, unbudgeted.merit);

  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    const SingleCutResult split =
        find_best_cut(g, kLat, budgeted(roomy),
                      CutSearchOptions{.executor = &pool, .split_depth = 3});
    // A budget that never exhausts keeps the split engine fully
    // deterministic: byte-identical to the serial run.
    EXPECT_FALSE(split.stats.budget_exhausted) << threads << " threads";
    EXPECT_EQ(split.cut, serial.cut) << threads << " threads";
    EXPECT_EQ(split.merit, serial.merit) << threads << " threads";
    EXPECT_EQ(split.stats.cuts_considered, serial.stats.cuts_considered)
        << threads << " threads";
    EXPECT_EQ(split.stats.best_updates, serial.stats.best_updates) << threads << " threads";
  }
}

TEST(SearchBudget, MultiCutConsideredPinsExactlyAtTheCutoff) {
  const Dfg g = budget_graph();
  const std::uint64_t demand = find_best_cuts(g, kLat, budgeted(0), 2).stats.cuts_considered;
  ASSERT_GT(demand, 100u);
  const std::uint64_t budget = demand / 3;

  const MultiCutResult engine = find_best_cuts(g, kLat, budgeted(budget), 2);
  EXPECT_TRUE(engine.stats.budget_exhausted);
  EXPECT_EQ(engine.stats.cuts_considered, budget);  // exact, not <=
  const MultiCutResult reference = find_best_cuts_reference(g, kLat, budgeted(budget), 2);
  EXPECT_TRUE(reference.stats.budget_exhausted);
  EXPECT_EQ(reference.stats.cuts_considered, budget);
  EXPECT_EQ(engine.cuts, reference.cuts);
  EXPECT_EQ(engine.total_merit, reference.total_merit);

  // Exhaustion means a cut was refused: a budget of exactly the demand
  // completes, one ticket less does not.
  const MultiCutResult exact = find_best_cuts(g, kLat, budgeted(demand), 2);
  EXPECT_FALSE(exact.stats.budget_exhausted);
  EXPECT_EQ(exact.stats.cuts_considered, demand);
  const MultiCutResult short_one = find_best_cuts(g, kLat, budgeted(demand - 1), 2);
  EXPECT_TRUE(short_one.stats.budget_exhausted);
  EXPECT_EQ(short_one.stats.cuts_considered, demand - 1);
}

TEST(SearchBudget, MultiCutExternalGatePinsTheAggregateAcrossSearches) {
  // The Optimal scheme's per-request budget: its multi-cut searches draw on
  // one shared gate, serially or concurrently (a round's blocks run on the
  // executor), and the aggregate lands on the budget exactly.
  std::vector<Dfg> graphs;
  std::uint64_t total_demand = 0;
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    RandomDagConfig cfg;
    cfg.num_ops = 20;
    cfg.seed = seed;
    graphs.push_back(random_dag(cfg));
    total_demand += find_best_cuts(graphs.back(), kLat, budgeted(0), 2).stats.cuts_considered;
  }
  ASSERT_GT(total_demand, 300u);
  const std::uint64_t budget = total_demand / 2;

  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    BudgetGate gate(budget);
    CutSearchOptions options;
    options.budget = &gate;
    std::vector<std::uint64_t> considered(graphs.size());
    pool.parallel_for(graphs.size(), [&](std::size_t i) {
      // Constraints say "unlimited": the external gate overrides them.
      considered[i] = find_best_cuts(graphs[i], kLat, budgeted(0), 2, options)
                          .stats.cuts_considered;
    });
    std::uint64_t aggregate = 0;
    for (const std::uint64_t c : considered) aggregate += c;
    EXPECT_EQ(aggregate, budget) << threads << " threads";  // exact, not <=
    EXPECT_EQ(gate.consumed(), budget) << threads << " threads";
    EXPECT_TRUE(gate.exhausted()) << threads << " threads";
  }
}

}  // namespace
}  // namespace isex
