#include "model/bounds.hpp"

#include <gtest/gtest.h>

#include "cluster/assignment.hpp"
#include "common/test_instances.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::uniformInstance;

TEST(Bounds, VolumeBoundWithoutExchangeIsDemandOverCapacity) {
  // 2 machines cap 100 each, shards totalling 120: bound = 0.6.
  const Instance inst = uniformInstance(2, 0, {60.0, 60.0});
  EXPECT_NEAR(volumeLowerBound(inst), 0.6, 1e-12);
}

TEST(Bounds, VolumeBoundAccountsForVacancyRequirement) {
  // 3 machines cap 100, k = 1 vacancy required: usable capacity 200.
  const Instance inst = uniformInstance(2, 1, {60.0, 60.0});
  EXPECT_NEAR(volumeLowerBound(inst), 120.0 / 200.0, 1e-12);
}

TEST(Bounds, VolumeBoundPicksSmallestMachinesToVacate) {
  // Machines of capacity 100, 100 and a big 400 exchange machine, k = 1:
  // the optimistic choice vacates a 100 machine, leaving 500.
  std::vector<Machine> machines(3);
  machines[0] = {0, ResourceVector{100.0}, false, 0};
  machines[1] = {1, ResourceVector{400.0}, false, 1};
  machines[2] = {2, ResourceVector{100.0}, false, 0};
  std::vector<Shard> shards(1);
  shards[0] = {0, ResourceVector{100.0}, 1.0};
  const Instance inst(1, std::move(machines), std::move(shards), {0}, 1,
                      ResourceVector{1.0});
  EXPECT_NEAR(volumeLowerBound(inst), 100.0 / 500.0, 1e-12);
}

TEST(Bounds, LargestShardBoundBinds) {
  // One 80-shard on 100-machines: no solution can be below 0.8.
  const Instance inst = uniformInstance(3, 0, {80.0, 5.0, 5.0});
  EXPECT_NEAR(largestShardLowerBound(inst), 0.8, 1e-12);
}

TEST(Bounds, LargestShardBoundUsesBiggestMachine) {
  std::vector<Machine> machines(2);
  machines[0] = {0, ResourceVector{100.0}, false, 0};
  machines[1] = {1, ResourceVector{200.0}, false, 1};
  std::vector<Shard> shards(1);
  shards[0] = {0, ResourceVector{80.0}, 1.0};
  const Instance inst(1, std::move(machines), std::move(shards), {0}, 0,
                      ResourceVector{1.0});
  EXPECT_NEAR(largestShardLowerBound(inst), 0.4, 1e-12);  // 80/200
}

TEST(Bounds, CombinedBoundIsMaxOfParts) {
  const Instance inst = uniformInstance(3, 0, {80.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(bottleneckLowerBound(inst),
                   std::max(volumeLowerBound(inst), largestShardLowerBound(inst)));
}

TEST(Bounds, BoundNeverExceedsAnyFeasibleSolution) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL, 29ULL}) {
    const Instance inst = tinyTestInstance(seed, 6, 30, 2, 0.6);
    Assignment a(inst);
    EXPECT_LE(bottleneckLowerBound(inst), a.bottleneckUtilization() + 1e-9)
        << "seed " << seed;
  }
}

TEST(Bounds, MultiDimBoundTakesWorstDimension) {
  // Demands skewed into dim 1: its volume dominates.
  std::vector<Machine> machines(2);
  machines[0] = {0, ResourceVector{100.0, 100.0}, false, 0};
  machines[1] = {1, ResourceVector{100.0, 100.0}, false, 0};
  std::vector<Shard> shards(2);
  shards[0] = {0, ResourceVector{10.0, 90.0}, 1.0};
  shards[1] = {1, ResourceVector{10.0, 90.0}, 1.0};
  const Instance inst(2, std::move(machines), std::move(shards), {0, 1}, 0,
                      ResourceVector{1.0, 1.0});
  EXPECT_NEAR(volumeLowerBound(inst), 0.9, 1e-12);
}

}  // namespace
}  // namespace resex
