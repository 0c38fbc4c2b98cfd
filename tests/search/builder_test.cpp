#include "search/builder.hpp"

#include <gtest/gtest.h>

#include "cluster/assignment.hpp"

namespace resex {
namespace {

SearchWorkloadConfig smallConfig() {
  SearchWorkloadConfig config;
  config.seed = 3;
  config.corpus.docCount = 50000;
  config.corpus.termCount = 2000;
  config.shardCount = 60;
  config.machines = 8;
  config.exchangeMachines = 2;
  config.peakQps = 500.0;
  config.cpuLoadFactorAtPeak = 0.8;
  return config;
}

TEST(SearchWorkload, DocFractionsSumToOne) {
  const SearchWorkload workload(smallConfig());
  double total = 0.0;
  for (const double f : workload.docFractions()) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SearchWorkload, CpuLoadFactorHitsTargetAtPeak) {
  const SearchWorkloadConfig config = smallConfig();
  const SearchWorkload workload(config);
  const Instance inst = workload.buildInstance(config.peakQps);
  // Dimension 0 is CPU: total demand / total regular capacity == target.
  const ResourceVector demand = inst.totalDemand();
  const ResourceVector cap = inst.totalRegularCapacity();
  EXPECT_NEAR(demand[0] / cap[0], config.cpuLoadFactorAtPeak, 1e-9);
}

TEST(SearchWorkload, CpuDemandScalesLinearlyWithQps) {
  const SearchWorkload workload(smallConfig());
  const ResourceVector low = workload.shardDemand(0, 100.0);
  const ResourceVector high = workload.shardDemand(0, 300.0);
  EXPECT_NEAR(high[0] / low[0], 3.0, 1e-9);
  // Memory (index size) does not depend on QPS.
  EXPECT_DOUBLE_EQ(high[1], low[1]);
}

TEST(SearchWorkload, BringUpPlacementIsFeasible) {
  const SearchWorkloadConfig config = smallConfig();
  const SearchWorkload workload(config);
  const Instance inst = workload.buildInstance(config.peakQps);
  Assignment a(inst);
  EXPECT_TRUE(a.validate(/*requireCapacity=*/true).empty());
}

TEST(SearchWorkload, ExchangeMachinesVacantAtBringUp) {
  const SearchWorkload workload(smallConfig());
  const Instance inst = workload.buildInstance(200.0);
  Assignment a(inst);
  EXPECT_GE(a.vacantCount(), 2u);
}

TEST(SearchWorkload, CarriedMappingIsRelabeledNotRejected) {
  const SearchWorkloadConfig config = smallConfig();
  const SearchWorkload workload(config);
  const Instance first = workload.buildInstance(config.peakQps);
  // Put a shard on an exchange machine (as SRA may legitimately do) and
  // drain the machine it came from.
  std::vector<MachineId> mapping = first.initialAssignment();
  const MachineId victim = mapping[0];
  const auto exch = static_cast<MachineId>(first.regularCount());
  for (MachineId& m : mapping)
    if (m == victim) m = exch;
  const Instance second = workload.buildInstance(config.peakQps, &mapping);
  Assignment a(second);
  EXPECT_EQ(second.machineCount(), first.machineCount());
  EXPECT_EQ(second.exchangeCount(), first.exchangeCount());
  // Carried over verbatim: machine ids are not renumbered.
  EXPECT_EQ(second.initialAssignment(), mapping);
  EXPECT_TRUE(a.validate(/*requireCapacity=*/false).empty());
}

TEST(SearchWorkload, MoveBytesEqualIndexBytes) {
  const SearchWorkload workload(smallConfig());
  const Instance inst = workload.buildInstance(100.0);
  for (ShardId s = 0; s < inst.shardCount(); ++s)
    EXPECT_DOUBLE_EQ(inst.shard(s).moveBytes, workload.indexBytes(s));
}

TEST(SearchWorkload, SimulateEndToEnd) {
  const SearchWorkloadConfig config = smallConfig();
  const SearchWorkload workload(config);
  const Instance inst = workload.buildInstance(config.peakQps);
  const SimulationResult r =
      workload.simulate(inst.initialAssignment(), config.peakQps, 2000, 7);
  EXPECT_EQ(r.queries, 2000u);
  EXPECT_GT(r.p99(), 0.0);
}

TEST(SearchWorkload, LowerQpsGivesLowerLatency) {
  const SearchWorkloadConfig config = smallConfig();
  const SearchWorkload workload(config);
  const Instance inst = workload.buildInstance(config.peakQps);
  const auto busy =
      workload.simulate(inst.initialAssignment(), config.peakQps, 3000, 7);
  const auto calm =
      workload.simulate(inst.initialAssignment(), config.peakQps * 0.3, 3000, 7);
  EXPECT_LT(calm.p99(), busy.p99());
}

TEST(SearchWorkload, RejectsDegenerateConfig) {
  SearchWorkloadConfig config = smallConfig();
  config.shardCount = 0;
  EXPECT_THROW(SearchWorkload{config}, std::invalid_argument);
  config = smallConfig();
  config.machines = 0;
  EXPECT_THROW(SearchWorkload{config}, std::invalid_argument);
}

}  // namespace
}  // namespace resex
