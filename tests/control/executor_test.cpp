#include "control/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/test_instances.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

Instance cluster(std::uint64_t seed, double load = 0.65) {
  SyntheticConfig gen;
  gen.seed = seed;
  gen.machines = 10;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 10.0;
  gen.loadFactor = load;
  gen.placementSkew = 1.0;
  gen.skuCount = 1;
  return generateSynthetic(gen);
}

ExecutorConfig fastExecutor(std::uint64_t seed) {
  ExecutorConfig config;
  config.sra.lns.seed = seed;
  config.sra.lns.maxIterations = 2500;
  config.sra.polish = false;  // replans must be deterministic
  return config;
}

RebalanceResult planFor(const Instance& inst, std::uint64_t seed) {
  SraConfig config;
  config.lns.seed = seed;
  config.lns.maxIterations = 2500;
  config.polish = false;
  return Sra(config).rebalance(inst);
}

bool survivorsWithinAllowance(const Instance& inst, const ExecutionReport& run) {
  Assignment start(inst);
  Assignment after(inst, run.finalMapping);
  for (MachineId m = 0; m < inst.machineCount(); ++m) {
    if (std::find(run.crashedMachines.begin(), run.crashedMachines.end(), m) !=
        run.crashedMachines.end())
      continue;
    if (after.utilizationOf(m) > std::max(1.0, start.utilizationOf(m)) + 1e-9)
      return false;
  }
  return true;
}

TEST(ExecutorConfigValidation, RejectsOutOfRangeParameters) {
  auto expectThrow = [](ExecutorConfig config, const std::string& field) {
    try {
      validateExecutorConfig(config);
      FAIL() << "expected invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  ExecutorConfig config;
  config.maxRetries = 63;  // 2^retries must stay representable
  expectThrow(config, "maxRetries");
  config = {};
  config.backoffBaseSeconds = 0.0;
  expectThrow(config, "backoffBaseSeconds");
  config = {};
  config.backoffCapSeconds = config.backoffBaseSeconds / 2.0;
  expectThrow(config, "backoffCapSeconds");
  config = {};
  config.migrationBandwidth = -1.0;
  expectThrow(config, "migrationBandwidth");
  EXPECT_NO_THROW(validateExecutorConfig(ExecutorConfig{}));
}

TEST(ExecutorConfigValidation, MessageCarriesTheValue) {
  ExecutorConfig config;
  config.migrationBandwidth = -2.5;
  try {
    validateExecutorConfig(config);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'-2.5'"), std::string::npos) << e.what();
  }
}

TEST(FaultPlanValidation, RejectsOutOfRangeParameters) {
  FaultPlan plan;
  plan.copyFailureProbability = 1.5;
  EXPECT_THROW(validateFaultPlan(plan), std::invalid_argument);
  plan = {};
  plan.clusterBandwidthMultiplier = 0.0;
  EXPECT_THROW(validateFaultPlan(plan), std::invalid_argument);
  plan = {};
  plan.crashes.push_back(MachineCrashEvent{0, 0, 2.0});
  EXPECT_THROW(validateFaultPlan(plan), std::invalid_argument);
  plan = {};
  plan.stragglers.push_back(StragglerEvent{0, -1.0});
  EXPECT_THROW(validateFaultPlan(plan), std::invalid_argument);
  EXPECT_NO_THROW(validateFaultPlan(FaultPlan{}));
}

TEST(FaultInjector, DrawsAreDeterministicAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 42;
  plan.copyFailureProbability = 0.5;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  bool sawFail = false;
  bool sawPass = false;
  for (std::size_t phase = 0; phase < 4; ++phase)
    for (ShardId shard = 0; shard < 32; ++shard) {
      const bool fails = a.copyAttemptFails(phase, shard, 0);
      EXPECT_EQ(fails, b.copyAttemptFails(phase, shard, 0));
      (fails ? sawFail : sawPass) = true;
    }
  EXPECT_TRUE(sawFail);
  EXPECT_TRUE(sawPass);
  // Extremes short-circuit.
  plan.copyFailureProbability = 0.0;
  EXPECT_FALSE(FaultInjector(plan).copyAttemptFails(0, 0, 0));
  plan.copyFailureProbability = 1.0;
  EXPECT_TRUE(FaultInjector(plan).copyAttemptFails(0, 0, 0));
}

TEST(Replan, CompensatesWithAnyVacantMachinesMidPlan) {
  // Mid-plan, regular machine 0 has drained onto tail machine 10, so the
  // vacant machines are 0 and 11, not the borrowed tail; then machine 3
  // dies. The replan keeps k, may leave the tail occupied, and must end
  // with k vacant live machines besides the corpse.
  const Instance inst = cluster(9);
  std::vector<MachineId> mapping = inst.initialAssignment();
  const auto tail = static_cast<MachineId>(inst.regularCount());
  for (MachineId& m : mapping)
    if (m == 0) m = tail;
  ASSERT_NE(mapping, inst.initialAssignment());
  const MachineId crashed[] = {3};
  const Instance replan = inst.afterCrash(crashed, mapping);
  EXPECT_EQ(replan.exchangeCount(), inst.exchangeCount());
  EXPECT_EQ(replan.vacancyTarget(), inst.exchangeCount() + 1);

  const RebalanceResult r = planFor(replan, 9);
  ASSERT_TRUE(r.scheduleComplete());
  EXPECT_TRUE(verifySchedule(replan, mapping, r.targetMapping, r.schedule).empty());
  const Assignment after(replan, r.finalMapping);
  EXPECT_TRUE(after.isVacant(3));
  std::size_t vacantLive = 0;
  for (MachineId m = 0; m < replan.machineCount(); ++m)
    if (m != 3 && after.isVacant(m)) ++vacantLive;
  EXPECT_GE(vacantLive, inst.exchangeCount());

  // The corpse cannot crash again: the executor runs the plan as is.
  FaultPlan faults;
  faults.crashes.push_back(MachineCrashEvent{3, 0, 0.5});
  const ExecutionReport run =
      MigrationExecutor(fastExecutor(9)).execute(replan, r.schedule, faults);
  EXPECT_TRUE(run.crashedMachines.empty());
  EXPECT_EQ(run.finalMapping, r.finalMapping);
}

TEST(Executor, CleanRunMatchesThePlan) {
  const Instance inst = cluster(11);
  const RebalanceResult plan = planFor(inst, 1);
  ASSERT_GT(plan.schedule.moveCount(), 0u);
  const MigrationExecutor executor(fastExecutor(1));
  const ExecutionReport run = executor.execute(inst, plan.schedule);
  EXPECT_EQ(run.finalMapping, plan.finalMapping);
  EXPECT_DOUBLE_EQ(run.committedBytes, plan.schedule.totalBytes);
  EXPECT_EQ(run.movesCommitted, plan.schedule.moveCount());
  EXPECT_EQ(run.retries, 0u);
  EXPECT_EQ(run.abortedMoves, 0u);
  EXPECT_EQ(run.replans, 0u);
  EXPECT_DOUBLE_EQ(run.wastedBytes, 0.0);
  EXPECT_FALSE(run.degraded);
  EXPECT_TRUE(run.complete());
  EXPECT_TRUE(run.unexecutedMoves.empty());
  ASSERT_EQ(run.plans.size(), 1u);
  EXPECT_TRUE(run.plans[0].committed.complete);
}

TEST(Executor, RetriesAreDeterministicAcrossRuns) {
  const Instance inst = cluster(12);
  const RebalanceResult plan = planFor(inst, 2);
  FaultPlan faults;
  faults.seed = 99;
  faults.copyFailureProbability = 0.3;
  ExecutorConfig config = fastExecutor(2);
  config.maxRetries = 6;
  const MigrationExecutor executor(config);
  const ExecutionReport run = executor.execute(inst, plan.schedule, faults);
  const ExecutionReport rerun = executor.execute(inst, plan.schedule, faults);
  EXPECT_GT(run.retries, 0u);
  EXPECT_GT(run.wastedBytes, 0.0);  // failed attempts burn bytes
  EXPECT_GT(run.simulatedSeconds, 0.0);
  EXPECT_EQ(run.finalMapping, rerun.finalMapping);
  EXPECT_EQ(run.retries, rerun.retries);
  EXPECT_EQ(run.abortedMoves, rerun.abortedMoves);
  EXPECT_DOUBLE_EQ(run.committedBytes, rerun.committedBytes);
  EXPECT_DOUBLE_EQ(run.wastedBytes, rerun.wastedBytes);
  EXPECT_TRUE(survivorsWithinAllowance(inst, run));
}

TEST(Executor, RetryExhaustionDegradesWithoutThrowing) {
  const Instance inst = cluster(13);
  const RebalanceResult plan = planFor(inst, 3);
  ASSERT_GT(plan.schedule.moveCount(), 0u);
  FaultPlan faults;
  faults.copyFailureProbability = 1.0;  // every attempt fails
  ExecutorConfig config = fastExecutor(3);
  config.maxRetries = 1;
  const MigrationExecutor executor(config);
  ExecutionReport run;
  ASSERT_NO_THROW(run = executor.execute(inst, plan.schedule, faults));
  EXPECT_EQ(run.finalMapping, inst.initialAssignment());  // nothing moved
  EXPECT_EQ(run.movesCommitted, 0u);
  EXPECT_GT(run.abortedMoves, 0u);
  EXPECT_DOUBLE_EQ(run.committedBytes, 0.0);
  EXPECT_GT(run.wastedBytes, 0.0);
  EXPECT_TRUE(run.degraded);
  EXPECT_FALSE(run.unexecutedMoves.empty());
  // The partial result reports exactly the relocations that never happened.
  EXPECT_EQ(run.unexecutedMoves.size(),
            diffMoves(inst.initialAssignment(), plan.finalMapping).size());
}

TEST(Executor, CrashTriggersReplanAndSurvivorsStayValid) {
  const Instance inst = cluster(14, 0.6);
  const RebalanceResult plan = planFor(inst, 4);
  ASSERT_GT(plan.schedule.phaseCount(), 0u);
  FaultPlan faults;
  faults.seed = 5;
  faults.crashes.push_back(MachineCrashEvent{4, 0, 0.5});
  const MigrationExecutor executor(fastExecutor(4));
  const ExecutionReport run = executor.execute(inst, plan.schedule, faults);
  ASSERT_EQ(run.crashedMachines, std::vector<MachineId>{4});
  EXPECT_GE(run.replans, 1u);
  EXPECT_EQ(run.finalMapping.size(), inst.shardCount());
  EXPECT_TRUE(survivorsWithinAllowance(inst, run));
  if (!run.degraded) {
    for (ShardId s = 0; s < inst.shardCount(); ++s)
      EXPECT_NE(run.finalMapping[s], 4u) << "shard " << s << " left on the corpse";
  } else {
    EXPECT_TRUE(!run.unexecutedMoves.empty() || run.replanFailed);
  }
  // Every committed plan replays cleanly against its own instance.
  for (const PlanRecord& record : run.plans) {
    const Instance planInst = inst.afterCrash(record.crashedBefore, record.start);
    EXPECT_TRUE(
        verifySchedule(planInst, record.start, record.target, record.committed)
            .empty());
  }
}

TEST(Executor, ReplanBudgetZeroDegradesGracefully) {
  const Instance inst = cluster(15, 0.6);
  const RebalanceResult plan = planFor(inst, 5);
  FaultPlan faults;
  faults.crashes.push_back(MachineCrashEvent{2, 0, 0.0});
  ExecutorConfig config = fastExecutor(5);
  config.maxReplans = 0;
  const MigrationExecutor executor(config);
  const ExecutionReport run = executor.execute(inst, plan.schedule, faults);
  EXPECT_TRUE(run.replanFailed);
  EXPECT_TRUE(run.degraded);
  EXPECT_EQ(run.replans, 0u);
  EXPECT_EQ(run.finalMapping.size(), inst.shardCount());
  for (const MachineId m : run.finalMapping) EXPECT_LT(m, inst.machineCount());
  EXPECT_TRUE(survivorsWithinAllowance(inst, run));
}

TEST(Executor, StragglersStretchTheSimulatedClock) {
  const Instance inst = cluster(16);
  const RebalanceResult plan = planFor(inst, 6);
  ASSERT_GT(plan.schedule.moveCount(), 0u);
  const MigrationExecutor executor(fastExecutor(6));
  const ExecutionReport clean = executor.execute(inst, plan.schedule);
  FaultPlan slow;
  slow.clusterBandwidthMultiplier = 0.5;  // every NIC at half speed
  const ExecutionReport degraded = executor.execute(inst, plan.schedule, slow);
  EXPECT_EQ(degraded.finalMapping, clean.finalMapping);  // only time changes
  EXPECT_GT(degraded.simulatedSeconds, clean.simulatedSeconds);
}

}  // namespace
}  // namespace resex
