#include "control/controller.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace resex {
namespace {

Instance skewedInstance(std::uint64_t seed, double load = 0.8) {
  SyntheticConfig gen;
  gen.seed = seed;
  gen.machines = 10;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 12.0;
  gen.loadFactor = load;
  gen.placementSkew = 1.1;
  gen.skuCount = 1;
  return generateSynthetic(gen);
}

ControllerConfig fastController() {
  ControllerConfig config;
  config.sra.lns.maxIterations = 1500;
  return config;
}

TEST(Trigger, FiresOnHighBottleneck) {
  RebalanceTrigger trigger(TriggerConfig{});
  BalanceMetrics hot;
  hot.bottleneckUtil = 0.95;
  hot.utilCv = 0.1;
  EXPECT_TRUE(trigger.shouldRebalance(hot, 0));
}

TEST(Trigger, FiresOnHighCv) {
  RebalanceTrigger trigger(TriggerConfig{});
  BalanceMetrics skewed;
  skewed.bottleneckUtil = 0.5;
  skewed.utilCv = 0.5;
  EXPECT_TRUE(trigger.shouldRebalance(skewed, 0));
}

TEST(Trigger, QuietClusterDoesNotFire) {
  RebalanceTrigger trigger(TriggerConfig{});
  BalanceMetrics calm;
  calm.bottleneckUtil = 0.6;
  calm.utilCv = 0.05;
  EXPECT_FALSE(trigger.shouldRebalance(calm, 0));
}

TEST(Trigger, InfeasibleStateAlwaysFires) {
  RebalanceTrigger trigger(TriggerConfig{});
  BalanceMetrics broken;
  broken.bottleneckUtil = 0.2;
  broken.utilCv = 0.0;
  broken.feasible = false;
  EXPECT_TRUE(trigger.shouldRebalance(broken, 0));
}

TEST(Trigger, CooldownSuppressesRefiring) {
  TriggerConfig config;
  config.cooldownEpochs = 3;
  RebalanceTrigger trigger(config);
  BalanceMetrics hot;
  hot.bottleneckUtil = 0.99;
  EXPECT_TRUE(trigger.shouldRebalance(hot, 0));
  EXPECT_FALSE(trigger.shouldRebalance(hot, 1));
  EXPECT_FALSE(trigger.shouldRebalance(hot, 2));
  EXPECT_TRUE(trigger.shouldRebalance(hot, 3));
}

TEST(Trigger, AlwaysModeIgnoresMetricsButNotCooldown) {
  TriggerConfig config;
  config.always = true;
  config.cooldownEpochs = 2;
  RebalanceTrigger trigger(config);
  BalanceMetrics calm;
  EXPECT_TRUE(trigger.shouldRebalance(calm, 0));
  EXPECT_FALSE(trigger.shouldRebalance(calm, 1));
  EXPECT_TRUE(trigger.shouldRebalance(calm, 2));
}

TEST(Controller, ExecutesWhenTriggered) {
  const Instance inst = skewedInstance(1);
  ClusterController controller(fastController());
  const EpochReport report = controller.step(inst);
  EXPECT_TRUE(report.triggered);  // skewed start: high cv
  EXPECT_TRUE(report.executed);
  EXPECT_LT(report.after.bottleneckUtil, report.before.bottleneckUtil);
  EXPECT_EQ(controller.rebalancesExecuted(), 1u);
  EXPECT_GT(controller.cumulativeBytes(), 0.0);
  EXPECT_EQ(controller.mapping().size(), inst.shardCount());
}

TEST(Controller, SkipsQuietEpochs) {
  ControllerConfig config = fastController();
  config.trigger.bottleneckThreshold = 0.999;
  config.trigger.cvThreshold = 10.0;  // effectively never
  ClusterController controller(config);
  const Instance inst = skewedInstance(2, 0.6);
  const EpochReport report = controller.step(inst);
  EXPECT_FALSE(report.triggered);
  EXPECT_FALSE(report.executed);
  EXPECT_EQ(controller.mapping(), inst.initialAssignment());
  EXPECT_EQ(controller.cumulativeBytes(), 0.0);
}

TEST(Controller, HistoryAccumulates) {
  ControllerConfig config = fastController();
  config.trigger.cooldownEpochs = 5;  // second epoch suppressed by cooldown
  ClusterController controller(config);
  const Instance inst = skewedInstance(4);
  controller.step(inst);
  controller.step(inst);
  ASSERT_EQ(controller.history().size(), 2u);
  EXPECT_EQ(controller.history()[0].epoch, 0u);
  EXPECT_EQ(controller.history()[1].epoch, 1u);
  EXPECT_TRUE(controller.history()[0].triggered);
  EXPECT_FALSE(controller.history()[1].triggered);
}

// Returns a fixed plan instead of running SRA, so execution can be
// exercised with a crafted incomplete schedule.
class CraftedPlanController : public ClusterController {
 public:
  CraftedPlanController(ControllerConfig config, RebalanceResult crafted)
      : ClusterController(config), crafted_(std::move(crafted)) {}

  RebalanceResult plan(const Instance&) override { return crafted_; }

 private:
  RebalanceResult crafted_;
};

// Three machines, shards {60, 60} on machines 0 and 1. The "plan" wants
// shard 0 on machine 2 and shard 1 on machine 0, but only shard 0's move
// got scheduled; shard 1's relocation is reported unscheduled.
Instance partialInstance() {
  return testing::placedInstance(3, 0, {60.0, 60.0}, {0, 1});
}

RebalanceResult partialPlan(const Instance& inst) {
  RebalanceResult crafted;
  crafted.algorithm = "crafted";
  crafted.targetMapping = {2, 0};
  Phase phase;
  phase.moves.push_back(Move{0, 0, 2});
  crafted.schedule.phases.push_back(phase);
  crafted.schedule.totalBytes = 60.0;
  crafted.schedule.complete = false;
  crafted.schedule.unscheduled.push_back(Move{1, 1, 0});
  crafted.finalMapping = applySchedule(inst.initialAssignment(), crafted.schedule);
  return crafted;
}

ControllerConfig alwaysFire() {
  ControllerConfig config;
  config.trigger.always = true;
  return config;
}

TEST(Controller, ExecutePartialAdvancesTheScheduledMoves) {
  const Instance inst = partialInstance();
  CraftedPlanController controller(alwaysFire(), partialPlan(inst));
  const EpochReport report = controller.step(inst);
  EXPECT_TRUE(report.triggered);
  EXPECT_TRUE(report.executed);
  EXPECT_FALSE(report.scheduleComplete);
  EXPECT_EQ(report.unscheduledMoves, 1u);
  EXPECT_EQ(controller.mapping(), (std::vector<MachineId>{2, 1}));
  EXPECT_DOUBLE_EQ(report.executedBytes, 60.0);
  EXPECT_DOUBLE_EQ(controller.cumulativeBytes(), 60.0);
}

TEST(Controller, ExecutorModeCleanRunMatchesLegacyAccounting) {
  const Instance inst = skewedInstance(21);
  ControllerConfig config = fastController();
  config.useExecutor = true;
  config.executor.sra = config.sra;
  config.executor.sra.polish = false;
  ClusterController controller(config);
  const EpochReport report = controller.step(inst);
  EXPECT_TRUE(report.executed);
  EXPECT_LT(report.after.bottleneckUtil, report.before.bottleneckUtil);
  EXPECT_FALSE(report.degradedCompletion);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.abortedMoves, 0u);
  EXPECT_EQ(report.replans, 0u);
  EXPECT_TRUE(report.crashedMachines.empty());
  EXPECT_DOUBLE_EQ(report.executedBytes, report.scheduleBytes);
  EXPECT_DOUBLE_EQ(controller.cumulativeBytes(), report.executedBytes);
}

TEST(Controller, ExecutorModeSurfacesDegradation) {
  const Instance inst = skewedInstance(22);
  ControllerConfig config = fastController();
  config.useExecutor = true;
  config.executor.sra = config.sra;
  config.executor.sra.polish = false;
  config.executor.maxRetries = 0;
  config.faults.copyFailureProbability = 1.0;  // every copy attempt fails
  ClusterController controller(config);
  const EpochReport report = controller.step(inst);
  EXPECT_TRUE(report.executed);
  EXPECT_TRUE(report.degradedCompletion);
  EXPECT_GT(report.abortedMoves, 0u);
  EXPECT_GT(report.unscheduledMoves, 0u);
  EXPECT_DOUBLE_EQ(report.executedBytes, 0.0);
  EXPECT_EQ(controller.mapping(), inst.initialAssignment());  // nothing moved
}

TEST(Controller, DrivesTraceOperationEndToEnd) {
  const Instance base = tinyTestInstance(999, 8, 96, 2, 0.55);
  TraceConfig traceConfig;
  traceConfig.seed = 4;
  traceConfig.epochs = 5;
  traceConfig.peakLoadFactor = 0.8;
  const Trace trace = generateTrace(base, traceConfig);

  ControllerConfig config = fastController();
  config.trigger.always = true;
  config.trigger.cooldownEpochs = 0;
  ClusterController controller(config);

  std::vector<MachineId> mapping = base.initialAssignment();
  for (std::size_t e = 0; e < trace.epochCount(); ++e) {
    const Instance inst = trace.instanceForEpoch(e, mapping);
    const EpochReport report = controller.step(inst);
    EXPECT_TRUE(report.executed) << "epoch " << e;
    mapping = controller.mapping();
    Assignment state(inst, mapping);
    EXPECT_GE(state.vacantCount(), inst.exchangeCount());
  }
  EXPECT_EQ(controller.rebalancesExecuted(), trace.epochCount());
}

TEST(Controller, ObservedCpuDemandReplacesDimensionZeroOnly) {
  const Instance base = skewedInstance(5);
  std::vector<double> observed(base.shardCount());
  for (ShardId s = 0; s < base.shardCount(); ++s)
    observed[s] = 0.25 + 0.01 * static_cast<double>(s);
  const Instance updated = withObservedCpuDemand(base, observed);
  ASSERT_EQ(updated.shardCount(), base.shardCount());
  EXPECT_EQ(updated.machineCount(), base.machineCount());
  EXPECT_EQ(updated.exchangeCount(), base.exchangeCount());
  EXPECT_EQ(updated.initialAssignment(), base.initialAssignment());
  for (ShardId s = 0; s < base.shardCount(); ++s) {
    EXPECT_DOUBLE_EQ(updated.shard(s).demand[0], observed[s]);
    EXPECT_DOUBLE_EQ(updated.shard(s).demand[1], base.shard(s).demand[1]);
    EXPECT_EQ(updated.replicaGroupOf(s), base.replicaGroupOf(s));
  }
}

TEST(Controller, ObservedCpuDemandRejectsBadInput) {
  const Instance base = skewedInstance(6);
  EXPECT_THROW(withObservedCpuDemand(base, std::vector<double>(3, 0.1)),
               std::invalid_argument);
  std::vector<double> negative(base.shardCount(), 0.1);
  negative[0] = -1.0;
  EXPECT_THROW(withObservedCpuDemand(base, negative), std::invalid_argument);
}

TEST(Controller, StepsOnObservedDemandAndImprovesBalance) {
  // The serving loop's contract: measure per-shard service time, rewrite
  // CPU demand with it, and a controller step still plans and lands a
  // better-balanced mapping for the instance it was measured on.
  const Instance base = skewedInstance(7);
  std::vector<double> observed(base.shardCount());
  for (ShardId s = 0; s < base.shardCount(); ++s)
    observed[s] = base.shard(s).demand[0] * 1.07;  // measured, slightly off model
  const Instance measured = withObservedCpuDemand(base, observed);
  ControllerConfig config = fastController();
  config.trigger.always = true;
  ClusterController controller(config);
  const EpochReport report = controller.step(measured);
  EXPECT_TRUE(report.triggered);
  EXPECT_TRUE(report.executed);
  EXPECT_LE(report.after.bottleneckUtil, report.before.bottleneckUtil + 1e-9);
}

}  // namespace
}  // namespace resex
