// Replication (anti-affinity) behaviour across the whole stack.
#include <gtest/gtest.h>

#include "cluster/assignment.hpp"
#include "cluster/scheduler.hpp"
#include "core/baselines.hpp"
#include "core/sra.hpp"
#include "model/branch_bound.hpp"
#include "model/ip_model.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

/// 2 replicas per logical shard on a small uniform cluster.
Instance replicatedInstance(std::size_t regular, std::size_t exchange,
                            const std::vector<double>& logicalSizes,
                            double cap = 100.0) {
  const std::size_t repl = 2;
  std::vector<Machine> machines(regular + exchange);
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector{cap, cap};
  }
  std::vector<Shard> shards(logicalSizes.size() * repl);
  std::vector<std::uint32_t> groups(shards.size());
  std::vector<MachineId> initial(shards.size());
  for (std::size_t g = 0; g < logicalSizes.size(); ++g) {
    for (std::size_t r = 0; r < repl; ++r) {
      const std::size_t s = g * repl + r;
      shards[s].id = static_cast<ShardId>(s);
      shards[s].demand = ResourceVector{logicalSizes[g], logicalSizes[g]};
      shards[s].moveBytes = logicalSizes[g];
      groups[s] = static_cast<std::uint32_t>(g);
      // Replica r of group g starts on machine (g + r) mod regular:
      // distinct machines as long as regular >= 2.
      initial[s] = static_cast<MachineId>((g + r) % regular);
    }
  }
  return Instance(2, std::move(machines), std::move(shards), std::move(initial),
                  exchange, ResourceVector{1.0, 1.0}, std::move(groups));
}

TEST(Replication, InstanceExposesGroups) {
  const Instance inst = replicatedInstance(4, 1, {10.0, 20.0});
  EXPECT_TRUE(inst.hasReplication());
  EXPECT_EQ(inst.replicaGroupOf(0), 0u);
  EXPECT_EQ(inst.replicaGroupOf(1), 0u);
  EXPECT_EQ(inst.replicaGroupOf(2), 1u);
  ASSERT_EQ(inst.replicasInGroup(0).size(), 2u);
  EXPECT_EQ(inst.replicaPeers(3).size(), 2u);
}

TEST(Replication, UnreplicatedInstanceHasSingletonGroups) {
  const Instance inst = tinyTestInstance();
  EXPECT_FALSE(inst.hasReplication());
  EXPECT_EQ(inst.replicaGroupOf(3), 3u);
  EXPECT_EQ(inst.replicasInGroup(3).size(), 1u);
}

TEST(Replication, ConstructorRejectsCoLocatedInitial) {
  std::vector<Machine> machines(2);
  machines[0] = {0, ResourceVector{100.0}, false, 0};
  machines[1] = {1, ResourceVector{100.0}, false, 0};
  std::vector<Shard> shards(2);
  shards[0] = {0, ResourceVector{10.0}, 1.0};
  shards[1] = {1, ResourceVector{10.0}, 1.0};
  EXPECT_THROW(Instance(1, machines, shards, {0, 0}, 0, ResourceVector{1.0}, {0, 0}),
               std::invalid_argument);
}

TEST(Replication, ConstructorRejectsMoreReplicasThanMachines) {
  std::vector<Machine> machines(2);
  machines[0] = {0, ResourceVector{100.0}, false, 0};
  machines[1] = {1, ResourceVector{100.0}, false, 0};
  std::vector<Shard> shards(3);
  for (ShardId s = 0; s < 3; ++s) shards[s] = {s, ResourceVector{10.0}, 1.0};
  EXPECT_THROW(
      Instance(1, machines, shards, {0, 1, 0}, 0, ResourceVector{1.0}, {0, 0, 0}),
      std::invalid_argument);
}

TEST(Replication, SerializationRoundTripsGroups) {
  const Instance original = replicatedInstance(4, 1, {10.0, 20.0, 5.0});
  const Instance copy = Instance::deserialize(original.serialize());
  EXPECT_TRUE(copy.hasReplication());
  for (ShardId s = 0; s < copy.shardCount(); ++s)
    EXPECT_EQ(copy.replicaGroupOf(s), original.replicaGroupOf(s));
}

TEST(Replication, CanPlaceRefusesPeerMachine) {
  const Instance inst = replicatedInstance(4, 1, {10.0});
  Assignment a(inst);
  // Shard 0 on machine 0, shard 1 (its replica) on machine 1.
  EXPECT_TRUE(a.hasReplicaOn(0, 1));
  EXPECT_FALSE(a.hasReplicaOn(0, 2));
  EXPECT_FALSE(a.canPlace(0, 1));
  EXPECT_TRUE(a.canPlace(0, 2));
}

TEST(Replication, ValidateFlagsCoLocation) {
  const Instance inst = replicatedInstance(4, 1, {10.0});
  Assignment a(inst);
  // Force co-location through the raw mutation API.
  a.moveShard(0, 1);
  const auto problems = a.validate(false);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("co-located"), std::string::npos);
}

TEST(Replication, StaticConflictHelperMatches) {
  const Instance inst = replicatedInstance(4, 1, {10.0});
  EXPECT_TRUE(Assignment::replicaConflict(inst, inst.initialAssignment(), 0, 1));
  EXPECT_FALSE(Assignment::replicaConflict(inst, inst.initialAssignment(), 0, 3));
}

TEST(Replication, SchedulerNeverCoLocatesInFlight) {
  // Swap the two replicas of a group between machines 0 and 1 — directly
  // impossible (they may never co-reside), so staging must route one
  // through a third machine.
  const Instance inst = replicatedInstance(2, 1, {30.0});
  const std::vector<MachineId> target{1, 0};  // swapped
  MigrationScheduler scheduler;
  const Schedule schedule =
      scheduler.build(inst, inst.initialAssignment(), target);
  EXPECT_TRUE(schedule.complete);
  EXPECT_GE(schedule.stagedHops, 1u);
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), target, schedule).empty());
}

TEST(Replication, VerifyCatchesCoLocatingSchedule) {
  const Instance inst = replicatedInstance(4, 0, {10.0});
  Schedule bad;
  Phase p;
  p.moves.push_back(Move{0, 0, 1});  // onto the peer's machine
  bad.phases.push_back(p);
  bad.totalBytes = 10.0;
  const std::vector<MachineId> target{1, 1};
  EXPECT_FALSE(verifySchedule(inst, inst.initialAssignment(), target, bad).empty());
}

TEST(Replication, GeneratorProducesValidReplicatedInstances) {
  SyntheticConfig config;
  config.seed = 9;
  config.machines = 12;
  config.exchangeMachines = 2;
  config.shardsPerMachine = 12.0;
  config.replicationFactor = 3;
  config.loadFactor = 0.7;
  const Instance inst = generateSynthetic(config);
  EXPECT_TRUE(inst.hasReplication());
  EXPECT_EQ(inst.shardCount() % 3, 0u);
  Assignment a(inst);
  EXPECT_TRUE(a.validate(/*requireCapacity=*/true).empty());
  // Replicas share demand vectors.
  for (std::uint32_t g = 0; g < inst.replicaGroupCount(); ++g) {
    const auto members = inst.replicasInGroup(g);
    for (std::size_t i = 1; i < members.size(); ++i)
      EXPECT_EQ(inst.shard(members[i]).demand, inst.shard(members[0]).demand);
  }
}

TEST(Replication, GeneratorRejectsReplicationOverMachines) {
  SyntheticConfig config;
  config.machines = 2;
  config.replicationFactor = 3;
  EXPECT_THROW(generateSynthetic(config), std::invalid_argument);
}

TEST(Replication, SraKeepsAntiAffinity) {
  SyntheticConfig gen;
  gen.seed = 77;
  gen.machines = 12;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 12.0;
  gen.replicationFactor = 2;
  gen.loadFactor = 0.75;
  gen.placementSkew = 1.0;
  const Instance inst = generateSynthetic(gen);

  SraConfig config;
  config.lns.maxIterations = 3000;
  Sra sra(config);
  const RebalanceResult r = sra.rebalance(inst);
  Assignment after(inst, r.finalMapping);
  EXPECT_TRUE(after.validate(/*requireCapacity=*/true).empty());
  EXPECT_GE(after.vacantCount(), inst.exchangeCount());
  EXPECT_TRUE(verifySchedule(inst, inst.initialAssignment(), r.targetMapping,
                             r.schedule)
                  .empty());
  EXPECT_LT(r.after.bottleneckUtil, r.before.bottleneckUtil);
}

TEST(Replication, BaselinesKeepAntiAffinity) {
  SyntheticConfig gen;
  gen.seed = 78;
  gen.machines = 10;
  gen.exchangeMachines = 1;
  gen.shardsPerMachine = 10.0;
  gen.replicationFactor = 2;
  gen.loadFactor = 0.65;
  gen.placementSkew = 1.0;
  const Instance inst = generateSynthetic(gen);

  SwapLocalSearch ls;
  GreedyRebalancer greedy;
  FfdRepack ffd;
  for (Rebalancer* alg : std::initializer_list<Rebalancer*>{&ls, &greedy, &ffd}) {
    const RebalanceResult r = alg->rebalance(inst);
    Assignment after(inst, r.finalMapping);
    const auto problems = after.validate(/*requireCapacity=*/false);
    for (const auto& p : problems)
      EXPECT_EQ(p.find("co-located"), std::string::npos) << alg->name() << ": " << p;
  }
}

TEST(Replication, BranchBoundRespectsAntiAffinity) {
  // Two groups of two 40-replicas on 3 machines (no vacancy): the optimum
  // must spread replicas; a non-replicated relaxation could stack both
  // replicas of a group together.
  const Instance inst = replicatedInstance(3, 0, {40.0, 40.0});
  const BranchBoundResult r = BranchBoundSolver().solve(inst);
  ASSERT_TRUE(r.optimal);
  Assignment best(inst, r.mapping);
  EXPECT_TRUE(best.validate(/*requireCapacity=*/true).empty());
  // 4 x 40 over 3 machines with anti-affinity: one machine gets replicas
  // of both groups (0.8), so the optimum is 0.8.
  EXPECT_NEAR(r.bottleneck, 0.8, 1e-9);
}

TEST(Replication, IpModelHasAntiAffinityConstraints) {
  const Instance inst = replicatedInstance(3, 0, {40.0});
  const IpModel model(inst);
  bool found = false;
  for (const auto& c : model.constraints())
    if (c.name.rfind("antiaffinity_", 0) == 0) found = true;
  EXPECT_TRUE(found);
  // A co-locating mapping violates the model.
  const auto violations = model.checkMapping({0, 0});
  bool flagged = false;
  for (const auto& v : violations)
    if (v.rfind("antiaffinity_", 0) == 0) flagged = true;
  EXPECT_TRUE(flagged);
}

}  // namespace
}  // namespace resex
