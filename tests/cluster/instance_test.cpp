#include "cluster/instance.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/test_instances.hpp"

namespace resex {
namespace {

using testing::uniformInstance;

TEST(Instance, BasicAccessors) {
  const Instance inst = uniformInstance(3, 2, {10.0, 20.0, 30.0});
  EXPECT_EQ(inst.dims(), 2u);
  EXPECT_EQ(inst.machineCount(), 5u);
  EXPECT_EQ(inst.regularCount(), 3u);
  EXPECT_EQ(inst.exchangeCount(), 2u);
  EXPECT_EQ(inst.shardCount(), 3u);
  EXPECT_EQ(inst.vacancyTarget(), 2u);
  EXPECT_DOUBLE_EQ(inst.shard(1).demand[0], 20.0);
  EXPECT_EQ(inst.initialMachineOf(2), 2u);
}

TEST(Instance, TotalsAndLoadFactor) {
  const Instance inst = uniformInstance(2, 1, {30.0, 50.0});
  const ResourceVector demand = inst.totalDemand();
  EXPECT_DOUBLE_EQ(demand[0], 80.0);
  const ResourceVector cap = inst.totalRegularCapacity();
  EXPECT_DOUBLE_EQ(cap[0], 200.0);  // exchange machine excluded
  EXPECT_DOUBLE_EQ(inst.loadFactor(), 0.4);
}

TEST(Instance, RejectsZeroDims) {
  EXPECT_THROW(Instance(0, {}, {}, {}, 0, ResourceVector{}), std::invalid_argument);
}

TEST(Instance, RejectsNoMachines) {
  EXPECT_THROW(Instance(1, {}, {}, {}, 0, ResourceVector{1.0}), std::invalid_argument);
}

TEST(Instance, RejectsGammaOutOfRange) {
  std::vector<Machine> machines(1);
  machines[0].capacity = ResourceVector{10.0};
  EXPECT_THROW(Instance(1, machines, {}, {}, 0, ResourceVector{1.5}),
               std::invalid_argument);
}

TEST(Instance, RejectsNonDenseShardIds) {
  std::vector<Machine> machines(1);
  machines[0].id = 0;
  machines[0].capacity = ResourceVector{10.0};
  std::vector<Shard> shards(1);
  shards[0].id = 5;  // not dense
  shards[0].demand = ResourceVector{1.0};
  EXPECT_THROW(Instance(1, machines, shards, {0}, 0, ResourceVector{1.0}),
               std::invalid_argument);
}

TEST(Instance, RejectsNegativeMoveBytes) {
  std::vector<Machine> machines(1);
  machines[0].id = 0;
  machines[0].capacity = ResourceVector{10.0};
  std::vector<Shard> shards(1);
  shards[0].id = 0;
  shards[0].demand = ResourceVector{1.0};
  shards[0].moveBytes = -1.0;
  EXPECT_THROW(Instance(1, machines, shards, {0}, 0, ResourceVector{1.0}),
               std::invalid_argument);
}

TEST(Instance, RejectsAssignmentSizeMismatch) {
  std::vector<Machine> machines(1);
  machines[0].id = 0;
  machines[0].capacity = ResourceVector{10.0};
  std::vector<Shard> shards(1);
  shards[0].id = 0;
  shards[0].demand = ResourceVector{1.0};
  EXPECT_THROW(Instance(1, machines, shards, {}, 0, ResourceVector{1.0}),
               std::invalid_argument);
}

TEST(Instance, SerializeRoundTrip) {
  const Instance original = uniformInstance(3, 1, {10.5, 20.25, 7.125});
  const Instance copy = Instance::deserialize(original.serialize());
  EXPECT_EQ(copy.dims(), original.dims());
  EXPECT_EQ(copy.machineCount(), original.machineCount());
  EXPECT_EQ(copy.exchangeCount(), original.exchangeCount());
  EXPECT_EQ(copy.shardCount(), original.shardCount());
  for (ShardId s = 0; s < copy.shardCount(); ++s) {
    EXPECT_EQ(copy.shard(s).demand, original.shard(s).demand);
    EXPECT_DOUBLE_EQ(copy.shard(s).moveBytes, original.shard(s).moveBytes);
    EXPECT_EQ(copy.initialMachineOf(s), original.initialMachineOf(s));
  }
  EXPECT_EQ(copy.transientGamma(), original.transientGamma());
}

TEST(Instance, CrashCollapsesCapacityAndAddsAVacancy) {
  const Instance inst = uniformInstance(4, 1, {10.0, 20.0, 30.0});
  const MachineId crashed[] = {2};
  std::vector<MachineId> placement = inst.initialAssignment();
  placement[0] = 4;  // mid-plan: a shard already on the tail machine
  const Instance crippled = inst.afterCrash(crashed, placement);
  EXPECT_TRUE(crippled.machine(2).crashed);
  EXPECT_FALSE(crippled.machine(1).crashed);
  for (std::size_t d = 0; d < inst.dims(); ++d)
    EXPECT_DOUBLE_EQ(crippled.machine(2).capacity[d], kCrashedCapacity);
  EXPECT_EQ(crippled.machine(1).capacity, inst.machine(1).capacity);
  EXPECT_EQ(crippled.exchangeCount(), 1u);
  EXPECT_EQ(crippled.vacancyTarget(), 2u);
  EXPECT_EQ(crippled.initialAssignment(), placement);
  // Crashing an already-crashed machine changes nothing.
  const Instance again = crippled.afterCrash(crashed, placement);
  EXPECT_EQ(again.vacancyTarget(), 2u);
  EXPECT_EQ(again.serialize(), crippled.serialize());
  const MachineId outOfRange[] = {99};
  EXPECT_THROW(inst.afterCrash(outOfRange, placement), std::invalid_argument);
}

TEST(Instance, CrashedRoundTripsThroughSerialize) {
  const Instance inst = uniformInstance(4, 2, {10.0, 20.0, 30.0});
  const MachineId crashed[] = {3, 1};
  const Instance crippled = inst.afterCrash(crashed, inst.initialAssignment());
  const std::string text = crippled.serialize();
  EXPECT_NE(text.find("crashed 2 1 3"), std::string::npos) << text;
  const Instance copy = Instance::deserialize(text);
  EXPECT_TRUE(copy.machine(1).crashed);
  EXPECT_TRUE(copy.machine(3).crashed);
  EXPECT_FALSE(copy.machine(0).crashed);
  EXPECT_EQ(copy.vacancyTarget(), 4u);
  EXPECT_EQ(copy.machine(3).capacity, crippled.machine(3).capacity);
  EXPECT_EQ(copy.serialize(), text);
  const std::string truncated = text.substr(0, text.find("crashed 2 1") + 10);
  EXPECT_THROW(Instance::deserialize(truncated), std::runtime_error);
}

TEST(Instance, DeserializeRejectsGarbage) {
  EXPECT_THROW(Instance::deserialize("not an instance"), std::runtime_error);
  EXPECT_THROW(Instance::deserialize("resex-instance v9\n"), std::runtime_error);
}

TEST(Instance, DeserializeRejectsTruncated) {
  const Instance original = uniformInstance(2, 0, {10.0, 20.0});
  std::string text = original.serialize();
  text.resize(text.size() / 2);
  EXPECT_THROW(Instance::deserialize(text), std::runtime_error);
}

TEST(Instance, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "resex_instance_test.txt";
  const Instance original = uniformInstance(2, 1, {5.0, 6.0});
  original.saveToFile(path);
  const Instance copy = Instance::loadFromFile(path);
  EXPECT_EQ(copy.serialize(), original.serialize());
  std::remove(path.c_str());
}

TEST(Instance, LoadFromMissingFileThrows) {
  EXPECT_THROW(Instance::loadFromFile("/nonexistent/inst.txt"), std::runtime_error);
}

}  // namespace
}  // namespace resex
