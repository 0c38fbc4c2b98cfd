// Operations over the search substrate: the controller driving a
// SearchWorkload through a diurnal cycle (the fig5/search_engine_day
// pipeline, asserted rather than printed).
#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "search/builder.hpp"
#include "workload/diurnal.hpp"

namespace resex {
namespace {

SearchWorkloadConfig opsConfig() {
  SearchWorkloadConfig config;
  config.seed = 71;
  config.corpus.docCount = 60000;
  config.corpus.termCount = 3000;
  config.shardCount = 60;
  config.machines = 8;
  config.exchangeMachines = 2;
  config.peakQps = 700.0;
  config.cpuLoadFactorAtPeak = 0.85;
  config.placementSkew = 1.1;
  return config;
}

TEST(SearchOps, ControllerHoldsTailLatencyThroughTheDay) {
  const SearchWorkloadConfig config = opsConfig();
  const SearchWorkload workload(config);
  DiurnalModel diurnal;

  ControllerConfig controllerConfig;
  controllerConfig.trigger.bottleneckThreshold = 0.9;
  controllerConfig.trigger.cvThreshold = 0.3;
  controllerConfig.trigger.cooldownEpochs = 0;
  controllerConfig.sra.lns.maxIterations = 2500;
  ClusterController controller(controllerConfig);

  std::vector<MachineId> managed =
      workload.buildInstance(config.peakQps).initialAssignment();
  std::vector<MachineId> staticMapping = managed;

  double managedWorstP99 = 0.0;
  double staticWorstP99 = 0.0;
  for (std::size_t epoch = 0; epoch < 6; ++epoch) {
    const double hour = static_cast<double>(epoch) * 4.0;
    const double qps = config.peakQps * diurnal.multiplier(hour) /
                       diurnal.multiplier(diurnal.peakHour);
    const Instance inst = workload.buildInstance(qps, &managed);
    managed = controller.step(inst).mapping;

    const auto withController = workload.simulate(managed, qps, 2500, 5 + epoch);
    const auto withoutController =
        workload.simulate(staticMapping, qps, 2500, 5 + epoch);
    managedWorstP99 = std::max(managedWorstP99, withController.p99());
    staticWorstP99 = std::max(staticWorstP99, withoutController.p99());

    // Invariants every epoch: vacancy preserved, mapping well formed.
    Assignment state(inst, managed);
    EXPECT_GE(state.vacantCount(), inst.exchangeCount()) << "epoch " << epoch;
  }
  // The managed cluster's worst tail beats the static skewed placement.
  EXPECT_LT(managedWorstP99, staticWorstP99);
}

TEST(SearchOps, ReplicatedWorkloadSurvivesTheSameLoop) {
  SearchWorkloadConfig config = opsConfig();
  config.replicationFactor = 2;
  config.shardCount = 30;  // 60 physical
  const SearchWorkload workload(config);

  ControllerConfig controllerConfig;
  controllerConfig.trigger.always = true;
  controllerConfig.trigger.cooldownEpochs = 0;
  controllerConfig.sra.lns.maxIterations = 1500;
  ClusterController controller(controllerConfig);

  std::vector<MachineId> mapping =
      workload.buildInstance(config.peakQps).initialAssignment();
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    const double qps = config.peakQps * (0.6 + 0.2 * static_cast<double>(epoch));
    const Instance inst = workload.buildInstance(qps, &mapping);
    const EpochReport report = controller.step(inst);
    EXPECT_TRUE(report.triggered) << "epoch " << epoch;
    mapping = report.mapping;
    Assignment state(inst, mapping);
    const auto problems = state.validate(/*requireCapacity=*/false);
    for (const auto& p : problems)
      EXPECT_EQ(p.find("co-located"), std::string::npos) << p;
    // Simulation still runs (replica routing handles the new mapping).
    const auto sim = workload.simulate(mapping, qps, 1500, 11 + epoch);
    EXPECT_EQ(sim.queries, 1500u);
  }
}

}  // namespace
}  // namespace resex
