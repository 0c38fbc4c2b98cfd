#include "metrics/balance.hpp"

#include <gtest/gtest.h>

#include "common/test_instances.hpp"
#include "core/sra.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

using testing::placedInstance;
using testing::uniformInstance;

TEST(Balance, PerfectlyEvenCluster) {
  const Instance inst = uniformInstance(4, 0, {25.0, 25.0, 25.0, 25.0});
  Assignment a(inst);
  const BalanceMetrics m = measureBalance(a);
  EXPECT_DOUBLE_EQ(m.bottleneckUtil, 0.25);
  EXPECT_DOUBLE_EQ(m.meanUtil, 0.25);
  EXPECT_NEAR(m.utilCv, 0.0, 1e-12);
  EXPECT_NEAR(m.jain, 1.0, 1e-12);
  EXPECT_TRUE(m.feasible);
  EXPECT_EQ(m.movedShards, 0u);
}

TEST(Balance, SkewedClusterHasHighCv) {
  const Instance inst = placedInstance(4, 0, {80.0, 5.0, 5.0, 5.0}, {0, 1, 2, 3});
  Assignment a(inst);
  const BalanceMetrics m = measureBalance(a);
  EXPECT_DOUBLE_EQ(m.bottleneckUtil, 0.8);
  EXPECT_GT(m.utilCv, 1.0);
  EXPECT_LT(m.jain, 0.5);
}

TEST(Balance, PerDimBottleneckSeparatesDimensions) {
  std::vector<Machine> machines(2);
  machines[0] = {0, ResourceVector{100.0, 100.0}, false, 0};
  machines[1] = {1, ResourceVector{100.0, 100.0}, false, 0};
  std::vector<Shard> shards(2);
  shards[0] = {0, ResourceVector{70.0, 10.0}, 1.0};
  shards[1] = {1, ResourceVector{10.0, 50.0}, 1.0};
  const Instance inst(2, std::move(machines), std::move(shards), {0, 1}, 0,
                      ResourceVector{1.0, 1.0});
  Assignment a(inst);
  const BalanceMetrics m = measureBalance(a);
  ASSERT_EQ(m.perDimBottleneck.size(), 2u);
  EXPECT_DOUBLE_EQ(m.perDimBottleneck[0], 0.7);
  EXPECT_DOUBLE_EQ(m.perDimBottleneck[1], 0.5);
  EXPECT_DOUBLE_EQ(m.bottleneckUtil, 0.7);
}

TEST(Balance, VacantCountIncludesExchange) {
  const Instance inst = uniformInstance(3, 2, {10.0, 10.0, 10.0});
  Assignment a(inst);
  const BalanceMetrics m = measureBalance(a);
  EXPECT_EQ(m.vacantMachines, 2u);
}

TEST(Balance, ExchangeMachinesExcludedFromMeanByDefault) {
  // The k vacant machines owed back do not dilute mean/CV/Jain; vacant
  // machines beyond k do.
  const Instance owed = uniformInstance(2, 2, {50.0, 50.0});
  EXPECT_DOUBLE_EQ(measureBalance(Assignment(owed)).meanUtil, 0.5);
  const Instance spare = placedInstance(4, 0, {50.0, 50.0}, {0, 1});
  EXPECT_DOUBLE_EQ(measureBalance(Assignment(spare)).meanUtil, 0.25);
  // Which machines are vacant does not matter: a loaded tail machine
  // counts, a vacant regular machine is left out.
  const Instance moved = placedInstance(2, 2, {50.0, 50.0}, {0, 3});
  const BalanceMetrics m = measureBalance(Assignment(moved));
  EXPECT_DOUBLE_EQ(m.meanUtil, 0.5);
  EXPECT_NEAR(m.utilCv, 0.0, 1e-12);
}

TEST(Balance, CrashedMachinesExcludedFromMean) {
  const Instance inst = uniformInstance(3, 1, {50.0, 50.0});
  const MachineId crashed[] = {2};
  const Instance crippled = inst.afterCrash(crashed, inst.initialAssignment());
  const BalanceMetrics m = measureBalance(Assignment(crippled));
  EXPECT_DOUBLE_EQ(m.meanUtil, 0.5);
  EXPECT_EQ(m.vacantMachines, 2u);
}

TEST(Balance, SraEndStateCvLeavesOutTheVacatedMachines) {
  // SRA's end states often load tail machines and vacate regular ones; the
  // CV must describe the loaded machines, not the k returned vacancies.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SyntheticConfig gen;
    gen.seed = seed;
    gen.machines = 20;
    gen.exchangeMachines = 2;
    gen.loadFactor = 0.85;
    const Instance inst = generateSynthetic(gen);
    SraConfig config;
    config.lns.seed = seed;
    config.lns.maxIterations = 4000;
    config.polish = false;
    const RebalanceResult r = Sra(config).rebalance(inst);
    ASSERT_TRUE(r.scheduleComplete());
    EXPECT_LT(r.after.utilCv, 0.01) << "seed " << seed;
  }
}

TEST(Balance, InfeasibleWhenOverCapacity) {
  const Instance inst = uniformInstance(2, 0, {60.0, 70.0});
  Assignment a(inst, {0, 0});
  const BalanceMetrics m = measureBalance(a);
  EXPECT_FALSE(m.feasible);
  EXPECT_GT(m.bottleneckUtil, 1.0);
}

TEST(Balance, MigrationFieldsMirrorAssignment) {
  const Instance inst = uniformInstance(3, 0, {10.0, 20.0, 30.0});
  Assignment a(inst);
  a.moveShard(2, 0);
  const BalanceMetrics m = measureBalance(a);
  EXPECT_EQ(m.movedShards, 1u);
  EXPECT_DOUBLE_EQ(m.migratedBytes, 30.0);
}

TEST(Balance, SummaryContainsKeyNumbers) {
  const Instance inst = uniformInstance(2, 0, {50.0, 50.0});
  Assignment a(inst);
  const std::string text = measureBalance(a).summary();
  EXPECT_NE(text.find("bottleneck=0.5"), std::string::npos);
  EXPECT_NE(text.find("feasible=yes"), std::string::npos);
}

}  // namespace
}  // namespace resex
