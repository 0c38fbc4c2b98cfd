#include "cluster/scheduler.hpp"

#include <gtest/gtest.h>

#include "cluster/assignment.hpp"
#include "common/test_instances.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;
using testing::uniformInstance;

TEST(Scheduler, EmptyDiffYieldsEmptySchedule) {
  const Instance inst = uniformInstance(2, 0, {10.0, 20.0});
  MigrationScheduler scheduler;
  const Schedule s =
      scheduler.build(inst, inst.initialAssignment(), inst.initialAssignment());
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.phaseCount(), 0u);
  EXPECT_DOUBLE_EQ(s.totalBytes, 0.0);
}

TEST(Scheduler, SingleDirectMove) {
  const Instance inst = uniformInstance(2, 1, {40.0, 30.0});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{2, 1};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.stagedHops, 0u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, ParallelIndependentMovesShareAPhase) {
  // Four shards moving to four distinct empty-ish machines: one phase.
  const Instance inst =
      placedInstance(4, 4, {10.0, 10.0, 10.0, 10.0}, {0, 1, 2, 3});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{4, 5, 6, 7};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.phaseCount(), 1u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, TwoShardSwapNeedsStagingWhenTight) {
  // Two machines of capacity 100, each holding one 70-shard; swap them.
  // Direct moves are transient-infeasible both ways (70 + 70 > 100), so
  // the scheduler must stage through the vacant exchange machine.
  const Instance inst = placedInstance(2, 1, {70.0, 70.0}, {0, 1});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{1, 0};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_GE(s.stagedHops, 1u);
  EXPECT_GT(s.totalBytes, 140.0);  // staging pays extra bytes
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, SwapDeadlockFailsWithoutStaging) {
  const Instance inst = placedInstance(2, 1, {70.0, 70.0}, {0, 1});
  SchedulerOptions options;
  options.allowStaging = false;
  MigrationScheduler scheduler(options);
  const std::vector<MachineId> target{1, 0};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_FALSE(s.complete);
  EXPECT_EQ(s.unscheduled.size(), 2u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, SwapDeadlockFailsWithNoVacantMachineAnywhere) {
  // No exchange machine and every regular machine nearly full: the swap
  // cannot be realized at all.
  const Instance inst = placedInstance(2, 0, {70.0, 70.0}, {0, 1});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{1, 0};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_FALSE(s.complete);
}

TEST(Scheduler, ChainMoveRunsInPhases) {
  // a->b->c chain where b must leave before a arrives (gamma=1, cap 100):
  // shard0: m0(60) -> m1; shard1: m1(60) -> m2 (empty). Phase 1 can only
  // run shard1 (m1's window for shard0 is 60+60 > 100), phase 2 runs
  // shard0.
  const Instance inst = placedInstance(3, 0, {60.0, 60.0}, {0, 1});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{1, 2};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.phaseCount(), 2u);
  EXPECT_EQ(s.stagedHops, 0u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, PeakTransientUtilIsRecorded) {
  const Instance inst = placedInstance(2, 1, {50.0, 40.0}, {0, 1});
  MigrationScheduler scheduler;
  // Move shard 1 (40) onto machine 0 (holding 50): window = 90/100.
  const std::vector<MachineId> target{0, 0};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  ASSERT_EQ(s.phaseCount(), 1u);
  EXPECT_NEAR(s.phases[0].peakTransientUtil, 0.9, 1e-9);
}

TEST(Scheduler, RejectsUnassignedMappings) {
  const Instance inst = uniformInstance(2, 0, {10.0});
  MigrationScheduler scheduler;
  EXPECT_THROW(scheduler.build(inst, {kNoMachine}, {0}), std::invalid_argument);
  EXPECT_THROW(scheduler.build(inst, {0}, {kNoMachine}), std::invalid_argument);
}

TEST(Scheduler, LowGammaAllowsDirectTightMoves) {
  // gamma=(0.1, 0.1): copies are cheap, so the tight swap from the staging
  // test becomes... still end-state infeasible mid-swap (70+70), but a
  // chain a->b with b nearly full works directly: m1 holds 85; moving 10
  // onto it needs window 85 + 1 = 86 and end 95.
  const Instance inst = placedInstance(2, 0, {10.0, 85.0}, {0, 1}, 100.0,
                                       ResourceVector{0.1, 0.1});
  MigrationScheduler scheduler;
  const std::vector<MachineId> target{1, 1};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.stagedHops, 0u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(Scheduler, RealisticInstanceSchedulesCompletely) {
  const Instance inst = tinyTestInstance(3, 8, 64, 2, 0.55);
  // Target: shuffle some shards around via a feasible random-ish target
  // built by moving every 4th shard to the next machine when it fits.
  Assignment target(inst);
  for (ShardId s = 0; s < inst.shardCount(); s += 4) {
    const MachineId cur = target.machineOf(s);
    const MachineId next = static_cast<MachineId>((cur + 1) % inst.machineCount());
    if (target.canPlace(s, next)) target.moveShard(s, next);
  }
  MigrationScheduler scheduler;
  const Schedule sched =
      scheduler.build(inst, inst.initialAssignment(), target.mapping());
  EXPECT_TRUE(sched.complete);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target.mapping(), sched)
                  .empty());
}

}  // namespace
}  // namespace resex
