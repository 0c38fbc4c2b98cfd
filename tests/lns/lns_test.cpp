#include "lns/lns.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "lns/destroy.hpp"
#include "lns/repair.hpp"
#include "model/bounds.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;

LnsConfig fastConfig(std::uint64_t seed = 1, std::size_t iters = 3000) {
  LnsConfig config;
  config.seed = seed;
  config.maxIterations = iters;
  config.timeBudgetSeconds = 20.0;
  return config;
}

TEST(Lns, ImprovesSkewedInstance) {
  const Instance inst = tinyTestInstance(41, 8, 96, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  Assignment start(inst);
  const double startBottleneck = start.bottleneckUtilization();

  LnsSolver solver(inst, obj, fastConfig());
  const LnsResult result = solver.solve();
  EXPECT_LT(result.bestScore.bottleneckUtil, startBottleneck);
  EXPECT_EQ(result.bestScore.vacancyDeficit, 0u);
}

TEST(Lns, BestMappingIsCapacityFeasibleAndConsistent) {
  const Instance inst = tinyTestInstance(43, 8, 96, 2, 0.7);
  const Objective obj(inst.exchangeCount());
  LnsSolver solver(inst, obj, fastConfig(7));
  const LnsResult result = solver.solve();
  Assignment best(inst, result.bestMapping);
  EXPECT_TRUE(best.validate(/*requireCapacity=*/true).empty());
  const Score rescored = obj.evaluate(best);
  EXPECT_NEAR(rescored.bottleneckUtil, result.bestScore.bottleneckUtil, 1e-6);
  EXPECT_EQ(rescored.vacancyDeficit, result.bestScore.vacancyDeficit);
}

TEST(Lns, VacancyConstraintHoldsInBest) {
  const Instance inst = tinyTestInstance(47, 8, 96, 3, 0.65);
  const Objective obj(inst.exchangeCount());
  LnsSolver solver(inst, obj, fastConfig(11));
  const LnsResult result = solver.solve();
  Assignment best(inst, result.bestMapping);
  EXPECT_GE(best.vacantCount(), inst.exchangeCount());
}

TEST(Lns, DeterministicForSeed) {
  const Instance inst = tinyTestInstance(53, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  LnsSolver a(inst, obj, fastConfig(99, 1500));
  LnsSolver b(inst, obj, fastConfig(99, 1500));
  // Time budgets could truncate differently; make them irrelevant.
  const LnsResult ra = a.solve();
  const LnsResult rb = b.solve();
  EXPECT_EQ(ra.bestMapping, rb.bestMapping);
}

TEST(Lns, RespectsIterationBudget) {
  const Instance inst = tinyTestInstance(59, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  LnsConfig config = fastConfig(1, 100);
  LnsSolver solver(inst, obj, config);
  const LnsResult result = solver.solve();
  EXPECT_LE(result.stats.iterations, 100u);
}

TEST(Lns, TargetBottleneckStopsEarly) {
  const Instance inst = tinyTestInstance(61, 8, 96, 2, 0.5);
  const Objective obj(inst.exchangeCount());
  LnsConfig config = fastConfig(3, 100000);
  config.targetBottleneck = 0.99;  // any feasible solution qualifies
  LnsSolver solver(inst, obj, config);
  const LnsResult result = solver.solve();
  EXPECT_LT(result.stats.iterations, 100000u);
}

TEST(Lns, TrajectoryIsRecordedAndMonotone) {
  const Instance inst = tinyTestInstance(67, 8, 96, 2, 0.7);
  const Objective obj(inst.exchangeCount());
  LnsConfig config = fastConfig(5);
  config.recordTrajectory = true;
  LnsSolver solver(inst, obj, config);
  const LnsResult result = solver.solve();
  ASSERT_GE(result.stats.trajectory.size(), 2u);
  // The best is replaced by lexicographic comparison (deficit, bottleneck,
  // spread, bytes); with deficit 0 throughout, the bottleneck track is the
  // monotone one (the scalarization can tick up when a tie-break improves).
  for (std::size_t i = 1; i < result.stats.trajectory.size(); ++i) {
    EXPECT_LE(result.stats.trajectory[i].bestBottleneck,
              result.stats.trajectory[i - 1].bestBottleneck + 1e-6);
    EXPECT_GE(result.stats.trajectory[i].iteration,
              result.stats.trajectory[i - 1].iteration);
  }
}

TEST(Lns, StatsAreCoherent) {
  const Instance inst = tinyTestInstance(71, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  LnsSolver solver(inst, obj, fastConfig(7, 2000));
  const LnsResult result = solver.solve();
  const LnsStats& stats = result.stats;
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_LE(stats.improvedBest, stats.accepted);
  EXPECT_LE(stats.accepted + stats.repairFailures, stats.iterations);
  EXPECT_EQ(stats.destroyUses.size(), 4u);  // default operator set
  EXPECT_EQ(stats.repairUses.size(), 3u);
  std::size_t destroyTotal = 0;
  for (const std::size_t u : stats.destroyUses) destroyTotal += u;
  EXPECT_EQ(destroyTotal, stats.iterations);
}

TEST(Lns, NeverWorseThanStart) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Instance inst = tinyTestInstance(seed * 100 + 3, 6, 60, 2, 0.75);
    const Objective obj(inst.exchangeCount());
    Assignment start(inst);
    const Score startScore = obj.evaluate(start);
    LnsSolver solver(inst, obj, fastConfig(seed, 1000));
    const LnsResult result = solver.solve();
    EXPECT_FALSE(startScore.betterThan(result.bestScore)) << "seed " << seed;
  }
}

TEST(Lns, ApproachesVolumeLowerBoundOnEasyInstance) {
  const Instance inst = tinyTestInstance(73, 8, 160, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  LnsSolver solver(inst, obj, fastConfig(13, 8000));
  const LnsResult result = solver.solve();
  const double lb = bottleneckLowerBound(inst);
  // Many small shards: LNS should get within 15% of the volume bound.
  EXPECT_LT(result.bestScore.bottleneckUtil, lb * 1.15);
}

TEST(Lns, CustomOperatorsAreUsed) {
  const Instance inst = tinyTestInstance(79, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  LnsSolver solver(inst, obj, fastConfig(17, 500));
  solver.addDestroy(std::make_unique<RandomDestroy>());
  solver.addRepair(std::make_unique<GreedyRepair>());
  const LnsResult result = solver.solve();
  EXPECT_EQ(result.stats.destroyUses.size(), 1u);
  EXPECT_EQ(result.stats.repairUses.size(), 1u);
  EXPECT_EQ(result.stats.destroyUses[0], result.stats.iterations);
}

}  // namespace
}  // namespace resex
