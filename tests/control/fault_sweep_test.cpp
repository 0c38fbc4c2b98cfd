// Randomized fault sweep: for a range of seeds, plan a rebalance, execute
// it under seeded copy failures plus a mid-flight machine crash, and check
// the invariants the executor guarantees regardless of what the faults do:
//
//   * the final mapping is always fully assigned (a real cluster state);
//   * every committed plan replays cleanly through verifySchedule against
//     its own replanning instance;
//   * committed bytes equal the sum of the committed schedules' totals;
//   * two runs with the same seeds match bit-for-bit;
//   * survivors never exceed max(capacity, their starting load);
//   * a non-degraded run leaves crashed machines empty, a degraded run
//     reports unexecuted moves or a failed replan.
//
// Registered under the `fault-sweep` ctest label so CI can run it under
// sanitizers explicitly.
#include <gtest/gtest.h>

#include <algorithm>

#include "control/executor.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

struct SweepCase {
  std::uint64_t seed = 0;
  double copyFail = 0.0;
  bool crash = false;
  std::size_t maxRetries = 3;
};

void runSweepCase(const SweepCase& sweep) {
  SCOPED_TRACE("seed " + std::to_string(sweep.seed));
  SyntheticConfig gen;
  gen.seed = sweep.seed;
  gen.machines = 12;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 10.0;
  gen.loadFactor = 0.6;
  gen.placementSkew = 1.0;
  gen.skuCount = 1;
  const Instance inst = generateSynthetic(gen);

  SraConfig sra;
  sra.lns.seed = sweep.seed + 1;
  sra.lns.maxIterations = 2000;
  sra.polish = false;
  const RebalanceResult plan = Sra(sra).rebalance(inst);
  if (plan.schedule.phaseCount() == 0) return;  // nothing to execute

  FaultPlan faults;
  faults.seed = sweep.seed * 31 + 7;
  faults.copyFailureProbability = sweep.copyFail;
  if (sweep.crash) {
    MachineCrashEvent crash;
    crash.machine = static_cast<MachineId>(sweep.seed % gen.machines);
    crash.phase = sweep.seed % 2;
    crash.fraction = 0.5;
    faults.crashes.push_back(crash);
  }

  ExecutorConfig config;
  config.maxRetries = sweep.maxRetries;
  config.maxReplans = 2;
  config.sra = sra;
  const MigrationExecutor executor(config);
  const ExecutionReport run = executor.execute(inst, plan.schedule, faults);
  const ExecutionReport rerun = executor.execute(inst, plan.schedule, faults);

  // Fully assigned mapping.
  ASSERT_EQ(run.finalMapping.size(), inst.shardCount());
  for (const MachineId m : run.finalMapping) ASSERT_LT(m, inst.machineCount());

  // Bit-for-bit determinism.
  EXPECT_EQ(run.finalMapping, rerun.finalMapping);
  EXPECT_EQ(run.retries, rerun.retries);
  EXPECT_EQ(run.abortedMoves, rerun.abortedMoves);
  EXPECT_EQ(run.replans, rerun.replans);
  EXPECT_DOUBLE_EQ(run.committedBytes, rerun.committedBytes);
  EXPECT_DOUBLE_EQ(run.wastedBytes, rerun.wastedBytes);

  // Committed plans replay cleanly; their byte totals add up.
  double committedTotal = 0.0;
  for (const PlanRecord& record : run.plans) {
    const Instance planInst = inst.afterCrash(record.crashedBefore, record.start);
    const auto problems =
        verifySchedule(planInst, record.start, record.target, record.committed);
    EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);
    committedTotal += record.committed.totalBytes;
  }
  EXPECT_NEAR(run.committedBytes, committedTotal,
              1e-9 * std::max(1.0, committedTotal));

  // Survivors stay within max(capacity, starting load).
  const auto isCrashed = [&run](MachineId m) {
    return std::find(run.crashedMachines.begin(), run.crashedMachines.end(),
                     m) != run.crashedMachines.end();
  };
  Assignment start(inst);
  Assignment after(inst, run.finalMapping);
  for (MachineId m = 0; m < inst.machineCount(); ++m) {
    if (isCrashed(m)) continue;
    EXPECT_LE(after.utilizationOf(m),
              std::max(1.0, start.utilizationOf(m)) + 1e-9)
        << "machine " << m;
  }

  // Crash accounting is coherent.
  if (!run.degraded) {
    for (ShardId s = 0; s < inst.shardCount(); ++s)
      EXPECT_FALSE(isCrashed(run.finalMapping[s]))
          << "shard " << s << " left on a crashed machine";
  } else {
    EXPECT_TRUE(!run.unexecutedMoves.empty() || run.replanFailed);
  }
}

TEST(FaultSweep, CopyFailuresOnly) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    runSweepCase(SweepCase{seed, 0.25, false});
}

TEST(FaultSweep, CrashWithCopyFailures) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    runSweepCase(SweepCase{seed, 0.2, true});
}

TEST(FaultSweep, AggressiveFaults) {
  // High failure rate with a tiny retry budget: degradation is likely; the
  // invariants must hold anyway.
  for (std::uint64_t seed = 5; seed <= 7; ++seed)
    runSweepCase(SweepCase{seed, 0.6, true, 0});
}

}  // namespace
}  // namespace resex
