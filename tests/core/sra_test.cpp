#include "core/sra.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/baselines.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;

SraConfig fastSra(std::uint64_t seed = 1, std::size_t iters = 4000) {
  SraConfig config;
  config.lns.seed = seed;
  config.lns.maxIterations = iters;
  config.lns.timeBudgetSeconds = 30.0;
  return config;
}

Instance skewedInstance(std::uint64_t seed = 2024, double load = 0.7) {
  SyntheticConfig config;
  config.seed = seed;
  config.machines = 12;
  config.exchangeMachines = 2;
  config.shardsPerMachine = 12.0;
  config.loadFactor = load;
  config.placementSkew = 1.0;
  config.skuCount = 1;
  return generateSynthetic(config);
}

TEST(Sra, ImprovesBottleneckSignificantly) {
  const Instance inst = skewedInstance();
  Sra sra(fastSra());
  const RebalanceResult r = sra.rebalance(inst);
  EXPECT_LT(r.after.bottleneckUtil, r.before.bottleneckUtil * 0.95);
}

TEST(Sra, ScheduleIsCompleteAndValid) {
  const Instance inst = skewedInstance(77);
  Sra sra(fastSra(3));
  const RebalanceResult r = sra.rebalance(inst);
  EXPECT_TRUE(r.scheduleComplete());
  EXPECT_TRUE(
      verifySchedule(inst, inst.initialAssignment(), r.targetMapping, r.schedule)
          .empty());
  EXPECT_EQ(r.finalMapping, r.targetMapping);
}

TEST(Sra, CompensationHolds) {
  const Instance inst = skewedInstance(78);
  Sra sra(fastSra(5));
  const RebalanceResult r = sra.rebalance(inst);
  Assignment after(inst, r.finalMapping);
  EXPECT_GE(after.vacantCount(), inst.exchangeCount());
  EXPECT_EQ(r.finalScore.vacancyDeficit, 0u);
}

TEST(Sra, FinalStateCapacityFeasible) {
  const Instance inst = skewedInstance(79, 0.8);
  Sra sra(fastSra(7));
  const RebalanceResult r = sra.rebalance(inst);
  Assignment after(inst, r.finalMapping);
  EXPECT_TRUE(after.validate(/*requireCapacity=*/true).empty());
}

TEST(Sra, BeatsSwapLsOnTightInstance) {
  const Instance inst = skewedInstance(80, 0.8);
  Sra sra(fastSra(9, 6000));
  SwapLocalSearch ls;
  const RebalanceResult rSra = sra.rebalance(inst);
  const RebalanceResult rLs = ls.rebalance(inst);
  EXPECT_LE(rSra.after.bottleneckUtil, rLs.after.bottleneckUtil + 1e-9);
}

TEST(Sra, SolvesTheCanonicalSwapDeadlock) {
  // The two-70s deadlock the baseline cannot touch: SRA balances it to
  // 0.7 each... it is already balanced; instead make it 70/70 on one
  // machine vs empty: SRA must split them using the exchange machine for
  // scheduling if needed.
  const Instance inst = placedInstance(2, 1, {49.0, 49.0}, {0, 0});
  Sra sra(fastSra(11, 2000));
  const RebalanceResult r = sra.rebalance(inst);
  EXPECT_NEAR(r.after.bottleneckUtil, 0.49, 1e-6);
  EXPECT_TRUE(r.scheduleComplete());
  Assignment after(inst, r.finalMapping);
  EXPECT_GE(after.vacantCount(), 1u);
}

TEST(Sra, UsesExchangeMachinesWhenProfitable) {
  // Tight cluster where spreading onto the exchange machines (and
  // draining a regular one) is the only way to cut the bottleneck.
  const Instance inst = skewedInstance(81, 0.85);
  Sra sra(fastSra(13, 8000));
  const RebalanceResult r = sra.rebalance(inst);
  Assignment after(inst, r.finalMapping);
  bool usedExchange = false;
  for (ShardId s = 0; s < inst.shardCount(); ++s)
    if (after.machineOf(s) >= inst.regularCount()) usedExchange = true;
  // Not guaranteed in principle, but with this seed/skew it happens; the
  // assertion documents the mechanism actually firing.
  EXPECT_TRUE(usedExchange);
  EXPECT_GE(after.vacantCount(), inst.exchangeCount());
}

TEST(Sra, LastSearchExposesTrajectoryWhenAsked) {
  const Instance inst = skewedInstance(82);
  SraConfig config = fastSra(15, 1500);
  config.lns.recordTrajectory = true;
  Sra sra(config);
  sra.rebalance(inst);
  EXPECT_FALSE(sra.lastSearch().stats.trajectory.empty());
}

TEST(Sra, PortfolioModeWorks) {
  const Instance inst = skewedInstance(83);
  SraConfig config = fastSra(17, 1200);
  config.portfolioSearches = 4;
  Sra sra(config);
  const RebalanceResult r = sra.rebalance(inst);
  EXPECT_TRUE(r.scheduleComplete());
  EXPECT_LT(r.after.bottleneckUtil, r.before.bottleneckUtil);
}

TEST(Sra, DeterministicForSeedSingleSearch) {
  const Instance inst = skewedInstance(84);
  Sra a(fastSra(19, 1500));
  Sra b(fastSra(19, 1500));
  const RebalanceResult ra = a.rebalance(inst);
  const RebalanceResult rb = b.rebalance(inst);
  EXPECT_EQ(ra.finalMapping, rb.finalMapping);
  EXPECT_EQ(ra.schedule.phaseCount(), rb.schedule.phaseCount());
}

TEST(Sra, ReportsSolveTime) {
  const Instance inst = skewedInstance(85);
  Sra sra(fastSra(21, 500));
  const RebalanceResult r = sra.rebalance(inst);
  EXPECT_GT(r.solveSeconds, 0.0);
}

}  // namespace
}  // namespace resex
