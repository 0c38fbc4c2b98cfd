#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include "cluster/assignment.hpp"
#include "control/controller.hpp"
#include "workload/synthetic.hpp"

namespace resex {
namespace {

Instance baseInstance() { return tinyTestInstance(21, 8, 80, 2, 0.5); }

TraceConfig fastConfig() {
  TraceConfig config;
  config.seed = 5;
  config.epochs = 6;
  config.peakLoadFactor = 0.8;
  return config;
}

TEST(Trace, ShapeMatchesConfig) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  EXPECT_EQ(trace.epochCount(), 6u);
  EXPECT_EQ(trace.shardCount(), base.shardCount());
}

TEST(Trace, WorstEpochHitsPeakLoadFactor) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  double worst = 0.0;
  for (std::size_t e = 0; e < trace.epochCount(); ++e)
    worst = std::max(worst, trace.epochLoadFactor(e));
  EXPECT_NEAR(worst, 0.8, 1e-9);
}

TEST(Trace, DemandsArePositive) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  for (std::size_t e = 0; e < trace.epochCount(); ++e)
    for (ShardId s = 0; s < trace.shardCount(); ++s)
      for (std::size_t d = 0; d < base.dims(); ++d)
        EXPECT_GT(trace.demand(e, s)[d], 0.0);
}

TEST(Trace, DemandsVaryAcrossEpochs) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  int changed = 0;
  for (ShardId s = 0; s < trace.shardCount(); ++s)
    if (!(trace.demand(0, s) == trace.demand(3, s))) ++changed;
  EXPECT_GT(changed, static_cast<int>(trace.shardCount() / 2));
}

TEST(Trace, DeterministicForSeed) {
  const Instance base = baseInstance();
  const Trace a = generateTrace(base, fastConfig());
  const Trace b = generateTrace(base, fastConfig());
  for (std::size_t e = 0; e < a.epochCount(); ++e)
    for (ShardId s = 0; s < a.shardCount(); ++s)
      EXPECT_EQ(a.demand(e, s), b.demand(e, s));
}

TEST(Trace, InstanceForEpochCarriesMappingOver) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  const Instance epoch1 = trace.instanceForEpoch(1, base.initialAssignment());
  EXPECT_EQ(epoch1.machineCount(), base.machineCount());
  EXPECT_EQ(epoch1.exchangeCount(), base.exchangeCount());
  EXPECT_EQ(epoch1.shardCount(), base.shardCount());
  // Demands come from the epoch, not the base.
  bool anyDiffer = false;
  for (ShardId s = 0; s < base.shardCount(); ++s)
    if (!(epoch1.shard(s).demand == base.shard(s).demand)) anyDiffer = true;
  EXPECT_TRUE(anyDiffer);
}

TEST(Trace, InstanceForEpochKeepsMachineIds) {
  // Heterogeneous machines: were ids renumbered across the epoch boundary,
  // shards would change host capacity without moving.
  SyntheticConfig gen;
  gen.seed = 3;
  gen.machines = 12;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 20.0;
  gen.skuCount = 3;
  gen.loadFactor = 0.7;
  const Instance base = generateSynthetic(gen);
  TraceConfig traceConfig = fastConfig();
  traceConfig.epochs = 3;
  const Trace trace = generateTrace(base, traceConfig);

  ControllerConfig config;
  config.trigger.always = true;
  config.trigger.cooldownEpochs = 0;
  config.sra.lns.maxIterations = 1500;
  config.sra.polish = false;
  ClusterController controller(config);
  std::vector<MachineId> mapping = base.initialAssignment();
  for (std::size_t e = 0; e + 1 < trace.epochCount(); ++e) {
    const Instance inst = trace.instanceForEpoch(e, mapping);
    mapping = controller.step(inst).mapping;  // handed back the way fig11_controller does
    const Instance next = trace.instanceForEpoch(e + 1, mapping);
    std::size_t changedHost = 0;
    for (ShardId s = 0; s < base.shardCount(); ++s)
      if (!(next.machine(next.initialMachineOf(s)).capacity ==
            inst.machine(mapping[s]).capacity))
        ++changedHost;
    EXPECT_EQ(changedHost, 0u) << "epoch " << e;
    EXPECT_EQ(next.exchangeCount(), base.exchangeCount());
  }
}

TEST(Trace, RejectsBadConfig) {
  const Instance base = baseInstance();
  TraceConfig config;
  config.epochs = 0;
  EXPECT_THROW(generateTrace(base, config), std::invalid_argument);
}

TEST(Trace, RejectsMappingSizeMismatch) {
  const Instance base = baseInstance();
  const Trace trace = generateTrace(base, fastConfig());
  EXPECT_THROW(trace.instanceForEpoch(0, {}), std::invalid_argument);
}

TEST(Trace, HotspotsRaiseSomeShardsSharply) {
  const Instance base = baseInstance();
  TraceConfig config = fastConfig();
  config.epochs = 12;
  config.hotspotRate = 0.25;
  config.hotspotMultiplier = 5.0;
  config.driftSigma = 0.0;
  config.diurnal.amplitude = 0.0;
  const Trace trace = generateTrace(base, config);
  // With flat diurnal and no drift, any large epoch-over-epoch jump is a
  // hotspot firing; at 25%/epoch over 12 epochs some must fire.
  int spikes = 0;
  for (std::size_t e = 1; e < trace.epochCount(); ++e)
    for (ShardId s = 0; s < trace.shardCount(); ++s)
      if (trace.demand(e, s)[0] > 2.5 * trace.demand(e - 1, s)[0]) ++spikes;
  EXPECT_GT(spikes, 0);
}

}  // namespace
}  // namespace resex
