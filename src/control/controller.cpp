#include "control/controller.hpp"

#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {

Instance withObservedCpuDemand(const Instance& base,
                               const std::vector<double>& observedCpu) {
  if (observedCpu.size() != base.shardCount())
    throw std::invalid_argument("withObservedCpuDemand: one value per shard required");
  std::vector<ResourceVector> demands(base.shardCount());
  for (ShardId s = 0; s < base.shardCount(); ++s) {
    if (!(observedCpu[s] >= 0.0))
      throw std::invalid_argument("withObservedCpuDemand: demand must be >= 0");
    demands[s] = base.shard(s).demand;
    demands[s][0] = observedCpu[s];
  }
  return base.withDemands(demands, base.initialAssignment());
}

bool RebalanceTrigger::shouldRebalance(const BalanceMetrics& metrics,
                                       std::size_t epoch) {
  if (firedBefore_ && epoch < lastFired_ + config_.cooldownEpochs) return false;
  const bool fire = config_.always ||
                    metrics.bottleneckUtil > config_.bottleneckThreshold ||
                    metrics.utilCv > config_.cvThreshold ||
                    (config_.fireOnInfeasible && !metrics.feasible);
  if (fire) {
    firedBefore_ = true;
    lastFired_ = epoch;
  }
  return fire;
}

RebalanceResult ClusterController::plan(const Instance& instance) {
  Sra sra(config_.sra);
  return sra.rebalance(instance);
}

EpochReport ClusterController::step(const Instance& instance) {
  const std::uint64_t epochStartUs = obs::nowMicros();
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("controller.epochs").add();

  EpochReport report;
  report.epoch = epoch_;

  Assignment current(instance);
  report.before = measureBalance(current);
  report.after = report.before;
  report.mapping = instance.initialAssignment();

  report.triggered = trigger_.shouldRebalance(report.before, epoch_);
  if (report.triggered) {
    registry.counter("controller.rebalances").add();
    RebalanceResult result = plan(instance);
    report.scheduleBytes = result.schedule.totalBytes;
    report.stagedHops = result.schedule.stagedHops;
    report.scheduleComplete = result.scheduleComplete();
    report.unscheduledMoves = result.schedule.unscheduled.size();
    report.solveSeconds = result.solveSeconds;
    if (config_.useExecutor) {
      const MigrationExecutor executor(config_.executor);
      ExecutionReport execution = executor.execute(instance, result.schedule,
                                                   config_.faults, config_.dataPlane);
      // The executor's leftovers subsume the plan's unscheduled intents
      // (its target includes them), so they are the honest count here.
      report.unscheduledMoves = execution.unexecutedMoves.size();
      report.executedBytes = execution.committedBytes;
      report.retries = execution.retries;
      report.abortedMoves = execution.abortedMoves;
      report.replans = execution.replans;
      report.crashedMachines = execution.crashedMachines;
      report.degradedCompletion = execution.degraded;
      report.mapping = std::move(execution.finalMapping);
      Assignment achieved(instance, report.mapping);
      report.after = measureBalance(achieved);
      if (execution.degraded) registry.counter("controller.degraded_epochs").add();
    } else {
      report.executedBytes = result.schedule.totalBytes;
      report.after = result.after;
      recordScheduleExecution(result.schedule);
      report.mapping = std::move(result.finalMapping);
    }
    cumulativeBytes_ += report.executedBytes;
    ++executed_;
  }

  registry.gauge("controller.bottleneck_util").set(report.after.bottleneckUtil);
  registry.gauge("controller.util_cv").set(report.after.utilCv);
  registry.gauge("controller.cumulative_bytes").set(cumulativeBytes_);
  registry.series("controller.epochs_series")
      .append(static_cast<double>(report.epoch), report.after.bottleneckUtil,
              report.after.utilCv);

  // Controller epochs land on the request-scoped timeline, so a trace
  // export shows query slowdowns against the re-plans that caused them.
  if (obs::TraceRegistry::enabled())
    obs::TraceRegistry::global().emitTimeline(
        "controller.epoch", epochStartUs, obs::nowMicros() - epochStartUs,
        {{"epoch", static_cast<double>(report.epoch)},
         {"triggered", report.triggered ? 1.0 : 0.0},
         {"bottleneck_util", report.after.bottleneckUtil},
         {"executed_bytes", report.executedBytes}});

  ++epoch_;
  history_.push_back(report);
  return report;
}

}  // namespace resex
