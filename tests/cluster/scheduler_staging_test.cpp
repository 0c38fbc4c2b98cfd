// Deep tests of the scheduler's deadlock-breaking machinery: staging hop
// caps, make-room eviction, stray cleanup, and the duration model.
#include <gtest/gtest.h>

#include "cluster/assignment.hpp"
#include "cluster/scheduler.hpp"
#include "common/test_instances.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;

TEST(SchedulerStaging, ChainWithExactCapacityFitCompletes) {
  // Machine 1 is stuffed with two 40s; shard 0 (60) moves there while one
  // 40 moves out to machine 0 — the copy windows interlock: phase 1 can
  // only run the 40 (whose window on m0 lands exactly at capacity),
  // phase 2 runs the 60.
  const Instance inst = placedInstance(3, 0, {60.0, 40.0, 40.0}, {0, 1, 1});
  const std::vector<MachineId> target{1, 0, 1};
  MigrationScheduler scheduler;
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(s.complete);
  EXPECT_GE(s.phaseCount(), 2u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(SchedulerStaging, StagingPrefersSmallEnoughIntermediate) {
  // Swap of a 60 and a 50 on full machines; the only spare machine has
  // capacity 55, so only the 50 can stage through it.
  std::vector<Machine> machines(3);
  machines[0] = {0, ResourceVector{100.0, 100.0}, false, 0};
  machines[1] = {1, ResourceVector{100.0, 100.0}, false, 0};
  machines[2] = {2, ResourceVector{55.0, 55.0}, false, 1};
  std::vector<Shard> shards(2);
  shards[0] = {0, ResourceVector{60.0, 60.0}, 60.0};
  shards[1] = {1, ResourceVector{50.0, 50.0}, 50.0};
  const Instance inst(2, std::move(machines), std::move(shards), {0, 1}, 1,
                      ResourceVector{1.0, 1.0});
  const std::vector<MachineId> target{1, 0};
  MigrationScheduler scheduler;
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  ASSERT_TRUE(s.complete);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
  // The 50 must be the one that took the detour through machine 2.
  bool fiftyStaged = false;
  for (const Phase& p : s.phases)
    for (const Move& mv : p.moves)
      if (mv.shard == 1 && mv.to == 2) fiftyStaged = true;
  EXPECT_TRUE(fiftyStaged);
}

TEST(SchedulerStaging, HopCapBoundsThrashing) {
  SchedulerOptions options;
  options.maxHopsPerShard = 1;
  options.maxStagingFactor = 0.5;
  MigrationScheduler scheduler(options);
  // An unschedulable swap: with the tiny hop budget it must fail fast
  // rather than thrash.
  const Instance inst = placedInstance(2, 0, {70.0, 70.0}, {0, 1});
  const std::vector<MachineId> target{1, 0};
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_FALSE(s.complete);
  EXPECT_LE(s.stagedHops, 2u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(SchedulerStaging, CleanupReturnsStraysTowardStart) {
  // Force an incomplete schedule with a stranded stage: shard 0 can stage
  // to the vacant machine but never reach its target. After cleanup it
  // must be back on its start machine, not stranded on the intermediate.
  // m0: A(50) B(30); m1: C(90); m2 vacant. Target: A -> m1 (impossible:
  // 90+50 > 100 and C never leaves).
  const Instance inst = placedInstance(2, 1, {50.0, 30.0, 90.0}, {0, 0, 1});
  const std::vector<MachineId> target{1, 0, 1};
  MigrationScheduler scheduler;
  const Schedule s = scheduler.build(inst, inst.initialAssignment(), target);
  ASSERT_FALSE(s.complete);
  ASSERT_EQ(s.unscheduled.size(), 1u);
  EXPECT_EQ(s.unscheduled[0].shard, 0u);
  // Replay: shard 0 ends where the schedule left it; cleanup should have
  // brought it home to machine 0.
  std::vector<MachineId> where = inst.initialAssignment();
  for (const Phase& p : s.phases)
    for (const Move& mv : p.moves) where[mv.shard] = mv.to;
  EXPECT_EQ(where[0], 0u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, s).empty());
}

TEST(SchedulerStaging, RandomTightInstancesAlwaysVerify) {
  // Stress: tight homogeneous instances with big shards; whatever the
  // scheduler produces (complete or not) must verify.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SyntheticConfig gen;
    gen.seed = seed;
    gen.machines = 12;
    gen.exchangeMachines = seed % 3;  // 0..2 exchange machines
    gen.shardsPerMachine = 10.0;
    gen.loadFactor = 0.9;
    gen.placementSkew = 1.0;
    gen.skuCount = 1;
    gen.shardSizeSigma = 1.2;
    gen.maxShardFraction = 0.6;
    const Instance inst = generateSynthetic(gen);

    // A random-ish ambitious target built from feasible end-state moves.
    Assignment target(inst);
    Rng rng(seed * 31);
    for (int churn = 0; churn < 200; ++churn) {
      const auto s = static_cast<ShardId>(rng.below(inst.shardCount()));
      const auto m = static_cast<MachineId>(rng.below(inst.machineCount()));
      if (target.machineOf(s) != m && target.canPlace(s, m)) target.moveShard(s, m);
    }
    MigrationScheduler scheduler;
    const Schedule s =
        scheduler.build(inst, inst.initialAssignment(), target.mapping());
    EXPECT_TRUE(
        verifySchedule(inst, inst.initialAssignment(), target.mapping(), s).empty())
        << "seed " << seed;
  }
}

TEST(ScheduleDuration, SinglePhaseUsesBusiestEndpoint) {
  const Instance inst = placedInstance(3, 1, {10.0, 20.0}, {0, 0});
  Schedule s;
  Phase p;
  p.moves.push_back(Move{0, 0, 1});  // 10 bytes out of m0
  p.moves.push_back(Move{1, 0, 2});  // 20 bytes out of m0
  s.phases.push_back(p);
  // Busiest endpoint is m0 with 30 outgoing bytes.
  EXPECT_DOUBLE_EQ(estimateScheduleSeconds(inst, s, 10.0), 3.0);
}

TEST(ScheduleDuration, PhasesAreBarriers) {
  const Instance inst = placedInstance(3, 1, {10.0, 20.0}, {0, 1});
  Schedule s;
  Phase p1;
  p1.moves.push_back(Move{0, 0, 2});  // 10 bytes
  Phase p2;
  p2.moves.push_back(Move{1, 1, 3});  // 20 bytes
  s.phases = {p1, p2};
  EXPECT_DOUBLE_EQ(estimateScheduleSeconds(inst, s, 10.0), 1.0 + 2.0);
}

TEST(ScheduleDuration, EmptyScheduleIsInstant) {
  const Instance inst = placedInstance(2, 0, {10.0}, {0});
  EXPECT_DOUBLE_EQ(estimateScheduleSeconds(inst, Schedule{}, 1.0), 0.0);
}

TEST(ScheduleDuration, RejectsNonPositiveBandwidth) {
  const Instance inst = placedInstance(2, 0, {10.0}, {0});
  EXPECT_THROW(estimateScheduleSeconds(inst, Schedule{}, 0.0), std::invalid_argument);
}

TEST(ScheduleDuration, MoreParallelismIsFaster) {
  // The same 4 relocations as one phase of 4 concurrent moves vs 4 serial
  // phases: concurrent must be strictly faster (distinct endpoints).
  const Instance inst =
      placedInstance(4, 4, {10.0, 10.0, 10.0, 10.0}, {0, 1, 2, 3});
  Schedule wide;
  Phase all;
  for (ShardId s = 0; s < 4; ++s)
    all.moves.push_back(Move{s, s, static_cast<MachineId>(s + 4)});
  wide.phases.push_back(all);
  Schedule narrow;
  for (ShardId s = 0; s < 4; ++s) {
    Phase p;
    p.moves.push_back(Move{s, s, static_cast<MachineId>(s + 4)});
    narrow.phases.push_back(p);
  }
  EXPECT_LT(estimateScheduleSeconds(inst, wide, 5.0),
            estimateScheduleSeconds(inst, narrow, 5.0));
}

}  // namespace
}  // namespace resex
