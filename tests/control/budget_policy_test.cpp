// Multi-epoch controller behaviour: budgets, cooldowns, and trace-driven
// accounting across a whole run.
#include <gtest/gtest.h>

#include "control/controller.hpp"

#include <memory>
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace resex {
namespace {

/// Trace keeps a pointer to its base instance, so both must share a
/// lifetime: bundle them (heap-allocated base keeps its address stable).
struct TraceBundle {
  std::unique_ptr<Instance> base;
  Trace trace;
};

TraceBundle driftTrace(std::uint64_t seed, std::size_t epochs) {
  auto base = std::make_unique<Instance>(tinyTestInstance(seed, 8, 96, 2, 0.5));
  TraceConfig config;
  config.seed = seed + 1;
  config.epochs = epochs;
  config.peakLoadFactor = 0.8;
  Trace trace = generateTrace(*base, config);
  return TraceBundle{std::move(base), std::move(trace)};
}

TEST(ControllerRun, BudgetGatesSomeEpochsButAccountingStaysConsistent) {
  const TraceBundle bundle = driftTrace(404, 6);
  const Trace& trace = bundle.trace;
  ControllerConfig config;
  config.trigger.always = true;
  config.trigger.cooldownEpochs = 0;
  config.sra.lns.maxIterations = 1200;
  // A budget that some plans exceed and some respect.
  config.bytesBudgetPerEpoch = 2e11;

  ClusterController controller(config);
  std::vector<MachineId> mapping = trace.base().initialAssignment();
  double executedBytes = 0.0;
  for (std::size_t e = 0; e < trace.epochCount(); ++e) {
    const Instance inst = trace.instanceForEpoch(e, mapping);
    const EpochReport report = controller.step(inst);
    if (report.executed) executedBytes += report.scheduleBytes;
    if (report.triggered && !report.executed) {
      EXPECT_GT(report.scheduleBytes, config.bytesBudgetPerEpoch);
    }
    mapping = controller.mapping();
  }
  EXPECT_NEAR(controller.cumulativeBytes(), executedBytes, 1.0);
  EXPECT_EQ(controller.history().size(), trace.epochCount());
}

TEST(ControllerRun, CooldownSkipsAlternateEpochs) {
  const TraceBundle bundle = driftTrace(405, 6);
  const Trace& trace = bundle.trace;
  ControllerConfig config;
  config.trigger.always = true;
  config.trigger.cooldownEpochs = 2;
  config.sra.lns.maxIterations = 800;

  ClusterController controller(config);
  std::vector<MachineId> mapping = trace.base().initialAssignment();
  for (std::size_t e = 0; e < trace.epochCount(); ++e) {
    const Instance inst = trace.instanceForEpoch(e, mapping);
    controller.step(inst);
    mapping = controller.mapping();
  }
  // Epochs 0, 2, 4 fire; 1, 3, 5 cool down.
  ASSERT_EQ(controller.history().size(), 6u);
  for (std::size_t e = 0; e < 6; ++e)
    EXPECT_EQ(controller.history()[e].triggered, e % 2 == 0) << "epoch " << e;
}

TEST(ControllerRun, UntriggeredEpochsCarryMappingUnchanged) {
  const TraceBundle bundle = driftTrace(406, 3);
  const Trace& trace = bundle.trace;
  ControllerConfig config;
  config.trigger.bottleneckThreshold = 1e9;
  config.trigger.cvThreshold = 1e9;
  config.trigger.fireOnInfeasible = false;
  ClusterController controller(config);
  std::vector<MachineId> mapping = trace.base().initialAssignment();
  for (std::size_t e = 0; e < trace.epochCount(); ++e) {
    const Instance inst = trace.instanceForEpoch(e, mapping);
    const EpochReport report = controller.step(inst);
    EXPECT_FALSE(report.triggered);
    EXPECT_EQ(controller.mapping(), inst.initialAssignment());
    EXPECT_DOUBLE_EQ(report.after.bottleneckUtil, report.before.bottleneckUtil);
    mapping = controller.mapping();
  }
  EXPECT_EQ(controller.rebalancesExecuted(), 0u);
}

TEST(ControllerRun, ReportsSolveTimeOnlyWhenTriggered) {
  const Instance inst = tinyTestInstance(407, 8, 96, 2, 0.7);
  ControllerConfig config;
  config.trigger.always = true;
  config.trigger.cooldownEpochs = 2;  // suppresses the very next epoch
  config.sra.lns.maxIterations = 500;
  ClusterController controller(config);
  const EpochReport fired = controller.step(inst);
  EXPECT_TRUE(fired.triggered);
  EXPECT_GT(fired.solveSeconds, 0.0);
  const EpochReport cooled = controller.step(inst);
  EXPECT_FALSE(cooled.triggered);
  EXPECT_DOUBLE_EQ(cooled.solveSeconds, 0.0);
}

}  // namespace
}  // namespace resex
