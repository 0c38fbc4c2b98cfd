#include "lns/destroy.hpp"
#include "lns/lns.hpp"
#include "lns/repair.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/test_instances.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;

Instance mediumInstance() { return tinyTestInstance(17, 8, 80, 2, 0.6); }

void expectRemovedConsistent(const Assignment& a, const std::vector<ShardId>& removed) {
  std::set<ShardId> unique(removed.begin(), removed.end());
  EXPECT_EQ(unique.size(), removed.size()) << "duplicate removals";
  for (const ShardId s : removed) EXPECT_FALSE(a.isAssigned(s));
  EXPECT_EQ(a.unassignedCount(), removed.size());
}

TEST(RandomDestroy, RemovesRequestedCount) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  Rng rng(1);
  RandomDestroy op;
  const auto removed = op.destroy(a, 10, rng);
  EXPECT_EQ(removed.size(), 10u);
  expectRemovedConsistent(a, removed);
  EXPECT_TRUE(a.validate(false).empty());
}

TEST(RandomDestroy, QuotaLargerThanShardCount) {
  const Instance inst = tinyTestInstance(3, 4, 12, 1, 0.5);
  Assignment a(inst);
  Rng rng(2);
  RandomDestroy op;
  const auto removed = op.destroy(a, 100, rng);
  EXPECT_LE(removed.size(), inst.shardCount());
  EXPECT_GE(removed.size(), inst.shardCount() / 2);  // most of them
  expectRemovedConsistent(a, removed);
}

TEST(WorstMachineDestroy, TargetsHotMachines) {
  // Machine 0 is hot (three shards), others hold one small shard each.
  const Instance inst =
      placedInstance(4, 0, {30.0, 30.0, 30.0, 5.0, 5.0, 5.0}, {0, 0, 0, 1, 2, 3});
  Assignment a(inst);
  Rng rng(3);
  WorstMachineDestroy op(0.25);  // top-1 machine of 4
  const auto removed = op.destroy(a, 2, rng);
  ASSERT_EQ(removed.size(), 2u);
  // All removals must come from the hot machine.
  for (const ShardId s : removed) EXPECT_EQ(inst.initialMachineOf(s), 0u);
}

TEST(WorstMachineDestroy, HandlesVacantTopMachinesGracefully) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  Rng rng(5);
  WorstMachineDestroy op(1.0);  // may sample vacant exchange machines
  const auto removed = op.destroy(a, 8, rng);
  EXPECT_GT(removed.size(), 0u);
  expectRemovedConsistent(a, removed);
}

TEST(ShawDestroy, RemovesQuotaAndSeedIsIncluded) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  Rng rng(7);
  ShawDestroy op;
  const auto removed = op.destroy(a, 12, rng);
  EXPECT_EQ(removed.size(), 12u);
  expectRemovedConsistent(a, removed);
}

TEST(ShawDestroy, RemovedShardsAreRelated) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  Rng rng(9);
  ShawDestroy op(/*sameMachineBonus=*/0.5, /*greediness=*/16.0);  // near-greedy
  const auto removed = op.destroy(a, 6, rng);
  ASSERT_GE(removed.size(), 2u);
  // With a near-greedy pick, removed shards should be closer to the seed
  // demand than the average shard is.
  const ResourceVector& seedDemand = inst.shard(removed[0]).demand;
  double removedAvg = 0.0;
  for (std::size_t i = 1; i < removed.size(); ++i)
    removedAvg += demandDistance(seedDemand, inst.shard(removed[i]).demand);
  removedAvg /= static_cast<double>(removed.size() - 1);
  double allAvg = 0.0;
  for (ShardId s = 0; s < inst.shardCount(); ++s)
    allAvg += demandDistance(seedDemand, inst.shard(s).demand);
  allAvg /= static_cast<double>(inst.shardCount());
  EXPECT_LT(removedAvg, allAvg);
}

TEST(VacancyDestroy, DrainsWholeMachines) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  const std::size_t vacantBefore = a.vacantCount();
  Rng rng(11);
  VacancyDestroy op;
  const auto removed = op.destroy(a, 30, rng);
  EXPECT_GT(removed.size(), 0u);
  expectRemovedConsistent(a, removed);
  EXPECT_GT(a.vacantCount(), vacantBefore);
}

TEST(VacancyDestroy, NoOccupiedMachinesMeansNothingToDo) {
  const Instance inst = mediumInstance();
  Assignment a(inst);
  for (ShardId s = 0; s < inst.shardCount(); ++s) a.remove(s);
  Rng rng(13);
  VacancyDestroy op;
  EXPECT_TRUE(op.destroy(a, 10, rng).empty());
}

TEST(AllDestroyOps, ZeroQuotaRemovesNothingOrSeedOnly) {
  const Instance inst = mediumInstance();
  Rng rng(15);
  RandomDestroy random;
  WorstMachineDestroy worst;
  VacancyDestroy vacancy;
  for (DestroyOperator* op :
       std::initializer_list<DestroyOperator*>{&random, &worst, &vacancy}) {
    Assignment a(inst);
    const auto removed = op->destroy(a, 0, rng);
    EXPECT_TRUE(removed.empty()) << op->name();
  }
}

TEST(AllDestroyOps, NamesAreDistinct) {
  RandomDestroy a;
  WorstMachineDestroy b;
  ShawDestroy c;
  VacancyDestroy d;
  std::set<std::string_view> names{a.name(), b.name(), c.name(), d.name()};
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace resex
