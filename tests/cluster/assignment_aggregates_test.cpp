// Safety net for the incremental aggregate caches (bottleneck max-tree,
// sum-of-squares, vacancy counter, migration bytes): drive an Assignment
// through long randomized move/swap/unassign/reassign sequences — on an
// instance with exchange machines and on one with replica groups — and
// check every aggregate against a from-scratch recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/assignment.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

/// 2 replicas per logical shard on a small uniform cluster (same shape as
/// the replication tests use).
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
      initial[s] = static_cast<MachineId>((g + r) % regular);
    }
  }
  return Instance(2, std::move(machines), std::move(shards), std::move(initial),
                  exchange, ResourceVector{1.0, 1.0}, std::move(groups));
}

/// Compares every incrementally maintained aggregate against values derived
/// from scratch (linear scans + a recomputed twin Assignment).
void expectAggregatesConsistent(const Assignment& a) {
  const Instance& inst = a.instance();
  const std::size_t m = inst.machineCount();

  // Linear-scan ground truth over the (already unit-tested) per-machine
  // utilization cache: max + lowest-id argmax + sum of squares + vacancies.
  double worst = 0.0;
  MachineId arg = 0;
  double sumSq = 0.0;
  std::size_t vacant = 0;
  for (MachineId mach = 0; mach < m; ++mach) {
    const double u = a.utilizationOf(mach);
    sumSq += u * u;
    if (u > worst) {
      worst = u;
      arg = mach;
    }
    if (a.isVacant(mach)) ++vacant;
  }
  ASSERT_NEAR(a.bottleneckUtilization(), worst, 1e-12);
  ASSERT_EQ(a.bottleneckMachine(), arg);
  ASSERT_NEAR(a.sumSquaredUtil(), sumSq, 1e-6);
  ASSERT_EQ(a.vacantCount(), vacant);

  // From-scratch twin: rebuilds all caches from the raw mapping.
  Assignment fresh(inst, a.mapping());
  ASSERT_NEAR(a.bottleneckUtilization(), fresh.bottleneckUtilization(), 1e-6);
  ASSERT_EQ(a.bottleneckMachine(), fresh.bottleneckMachine());
  ASSERT_NEAR(a.sumSquaredUtil(), fresh.sumSquaredUtil(), 1e-6);
  ASSERT_EQ(a.vacantCount(), fresh.vacantCount());
  // Bytes totals run to ~1e12 (bytesPerDemand ~ 1e9): compare relatively.
  ASSERT_NEAR(a.migratedBytes(), fresh.migratedBytes(),
              1e-9 * std::max(1.0, std::abs(fresh.migratedBytes())));
  ASSERT_EQ(a.movedShardCount(), fresh.movedShardCount());
}

/// Runs `steps` random mutations (move / swap / unassign / reassign),
/// checking the cheap linear-scan invariants every step and the full
/// from-scratch twin every `auditEvery` steps.
void randomWalk(const Instance& inst, std::uint64_t seed, std::size_t steps,
                std::size_t auditEvery) {
  Assignment a(inst);
  Rng rng(seed);
  const std::size_t n = inst.shardCount();
  const std::size_t m = inst.machineCount();

  for (std::size_t step = 1; step <= steps; ++step) {
    const auto s = static_cast<ShardId>(rng.below(n));
    const int op = static_cast<int>(rng.below(4));
    if (op == 0) {
      // Move to a random machine (skip replica-conflicting targets so the
      // walk stays anti-affinity-clean and validate() can stay strict).
      if (a.isAssigned(s)) {
        const auto to = static_cast<MachineId>(rng.below(m));
        if (!a.hasReplicaOn(s, to)) a.moveShard(s, to);
      }
    } else if (op == 1) {
      // Swap the machines of two assigned shards.
      const auto s2 = static_cast<ShardId>(rng.below(n));
      if (s != s2 && a.isAssigned(s) && a.isAssigned(s2)) {
        const MachineId m1 = a.machineOf(s);
        const MachineId m2 = a.machineOf(s2);
        if (m1 != m2) {
          a.remove(s);
          a.remove(s2);
          if (!a.hasReplicaOn(s, m2) && !a.hasReplicaOn(s2, m1)) {
            a.assign(s, m2);
            a.assign(s2, m1);
          } else {
            a.assign(s, m1);
            a.assign(s2, m2);
          }
        }
      }
    } else if (op == 2) {
      if (a.isAssigned(s)) a.remove(s);
    } else {
      if (!a.isAssigned(s)) {
        const auto to = static_cast<MachineId>(rng.below(m));
        if (!a.hasReplicaOn(s, to)) a.assign(s, to);
      }
    }

    // Cheap per-step invariants: tree root vs linear max over the cache.
    double worst = 0.0;
    MachineId arg = 0;
    for (MachineId mach = 0; mach < m; ++mach) {
      if (a.utilizationOf(mach) > worst) {
        worst = a.utilizationOf(mach);
        arg = mach;
      }
    }
    ASSERT_NEAR(a.bottleneckUtilization(), worst, 1e-12) << "step " << step;
    ASSERT_EQ(a.bottleneckMachine(), arg) << "step " << step;

    if (step % auditEvery == 0) {
      expectAggregatesConsistent(a);
      ASSERT_TRUE(a.validate(/*requireCapacity=*/false).empty()) << "step " << step;
    }
  }
  expectAggregatesConsistent(a);
}

TEST(AssignmentAggregates, RandomWalkWithExchangeMachines) {
  // Synthetic instance with exchange machines; capacity may be violated
  // mid-walk (assign performs no checks) — exactly what the LNS loop does.
  const Instance inst = tinyTestInstance(/*seed=*/21, /*machines=*/14,
                                         /*shards=*/120, /*exchange=*/3,
                                         /*loadFactor=*/0.7);
  randomWalk(inst, /*seed=*/1234, /*steps=*/60000, /*auditEvery=*/4000);
}

TEST(AssignmentAggregates, RandomWalkWithReplicaGroups) {
  const Instance inst = replicatedInstance(
      /*regular=*/10, /*exchange=*/2,
      {12.0, 7.0, 22.0, 5.0, 9.0, 17.0, 3.0, 11.0, 14.0, 6.0, 8.0, 19.0});
  randomWalk(inst, /*seed=*/991, /*steps=*/60000, /*auditEvery=*/4000);
}

TEST(AssignmentAggregates, RecomputeMatchesIncrementalAfterWalk) {
  const Instance inst = tinyTestInstance(5, 8, 64, 2, 0.65);
  Assignment a(inst);
  Rng rng(77);
  for (std::size_t step = 0; step < 20000; ++step) {
    const auto s = static_cast<ShardId>(rng.below(inst.shardCount()));
    const auto to = static_cast<MachineId>(rng.below(inst.machineCount()));
    if (a.isAssigned(s)) a.moveShard(s, to);
    else a.assign(s, to);
  }
  const double bottleneck = a.bottleneckUtilization();
  const MachineId hot = a.bottleneckMachine();
  const double sumSq = a.sumSquaredUtil();
  a.recomputeCaches();
  EXPECT_NEAR(a.bottleneckUtilization(), bottleneck, 1e-9);
  EXPECT_EQ(a.bottleneckMachine(), hot);
  EXPECT_NEAR(a.sumSquaredUtil(), sumSq, 1e-9);
}

}  // namespace
}  // namespace resex
