// F11 (extension) — Controller policy: migration traffic vs achieved
// balance over a multi-epoch trace.
//
// Three trigger policies run over the same 24-epoch drift trace:
// rebalance every epoch, rebalance on threshold breach (the default
// hysteresis trigger), and never. Expected shape: the threshold policy
// achieves nearly the every-epoch worst-case balance at a fraction of the
// migration bytes; never-rebalance drifts into overload.

#include <cstdio>

#include "control/controller.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace {

struct PolicyOutcome {
  double worstBottleneck = 0.0;
  double meanBottleneck = 0.0;
  double totalGb = 0.0;
  std::size_t rebalances = 0;
  std::size_t overloadedEpochs = 0;
};

PolicyOutcome runPolicy(const resex::Trace& trace, resex::ControllerConfig config) {
  resex::ClusterController controller(config);
  std::vector<resex::MachineId> mapping = trace.base().initialAssignment();
  PolicyOutcome out;
  resex::OnlineStats bottleneck;
  for (std::size_t e = 0; e < trace.epochCount(); ++e) {
    const resex::Instance inst = trace.instanceForEpoch(e, mapping);
    const resex::EpochReport report = controller.step(inst);
    mapping = report.mapping;
    bottleneck.add(report.after.bottleneckUtil);
    if (report.after.bottleneckUtil > 1.0 + 1e-9) ++out.overloadedEpochs;
  }
  out.worstBottleneck = bottleneck.max();
  out.meanBottleneck = bottleneck.mean();
  out.totalGb = controller.cumulativeBytes() / 1e9;
  out.rebalances = controller.rebalancesExecuted();
  return out;
}

}  // namespace

int main() {
  resex::SyntheticConfig gen;
  gen.seed = 404;
  gen.machines = 24;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 14.0;
  gen.loadFactor = 0.6;
  gen.placementSkew = 0.6;
  gen.skuCount = 1;
  gen.maxShardFraction = 0.3;  // hotspot spikes must not exceed a machine
  const resex::Instance base = resex::generateSynthetic(gen);

  resex::TraceConfig traceConfig;
  traceConfig.seed = 11;
  traceConfig.epochs = 24;
  traceConfig.peakLoadFactor = 0.88;
  traceConfig.hotspotRate = 0.03;
  traceConfig.hotspotMultiplier = 2.0;
  const resex::Trace trace = resex::generateTrace(base, traceConfig);

  std::printf("== F11: controller trigger policy over a 24-epoch drift trace ==\n");
  std::printf("m=%zu (+%zu), %zu shards, peak epoch load %.2f\n\n",
              base.regularCount(), base.exchangeCount(), base.shardCount(),
              traceConfig.peakLoadFactor);

  resex::ControllerConfig always;
  always.trigger.always = true;
  always.trigger.cooldownEpochs = 0;
  always.sra.lns.maxIterations = 5000;

  resex::ControllerConfig threshold;
  threshold.trigger.bottleneckThreshold = 0.92;
  threshold.trigger.cvThreshold = 0.35;
  threshold.trigger.cooldownEpochs = 1;
  threshold.sra.lns.maxIterations = 5000;

  resex::ControllerConfig never;
  never.trigger.bottleneckThreshold = 1e9;
  never.trigger.cvThreshold = 1e9;
  never.trigger.fireOnInfeasible = false;
  never.sra.lns.maxIterations = 1;

  resex::Table table({"policy", "rebalances", "total GB", "worst bneck",
                      "mean bneck", "overloaded epochs"});
  struct Row {
    const char* name;
    resex::ControllerConfig config;
  };
  for (const Row& row : {Row{"every epoch", always}, Row{"threshold", threshold},
                         Row{"never", never}}) {
    const PolicyOutcome out = runPolicy(trace, row.config);
    table.addRow({row.name, resex::Table::num(out.rebalances),
                  resex::Table::num(out.totalGb, 1),
                  resex::Table::num(out.worstBottleneck, 4),
                  resex::Table::num(out.meanBottleneck, 4),
                  resex::Table::num(out.overloadedEpochs)});
  }
  table.print();
  return 0;
}
