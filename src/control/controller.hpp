// ClusterController: the operational loop around SRA.
//
// Production rebalancing is not a one-shot solve: an operator (or an
// automated controller) watches balance metrics epoch over epoch, decides
// *when* a rebalance pays for itself and carries the placement forward.
// This module packages that loop: a hysteresis trigger and a history of
// what happened.
#pragma once

#include <optional>
#include <vector>

#include "control/executor.hpp"
#include "core/sra.hpp"

namespace resex {

struct TriggerConfig {
  /// Fire when the bottleneck utilization exceeds this.
  double bottleneckThreshold = 0.9;
  /// ... or when the utilization CV exceeds this.
  double cvThreshold = 0.3;
  /// Minimum epochs between firings (hysteresis).
  std::size_t cooldownEpochs = 1;
  /// Fire when the current placement is over capacity, regardless of the
  /// thresholds (off only for do-nothing baselines).
  bool fireOnInfeasible = true;
  /// Fire every epoch regardless of metrics (for A/B comparisons).
  bool always = false;
};

/// Stateful trigger with cooldown tracking.
class RebalanceTrigger {
 public:
  explicit RebalanceTrigger(TriggerConfig config) : config_(config) {}

  /// Decides for the epoch; firing starts the cooldown.
  bool shouldRebalance(const BalanceMetrics& metrics, std::size_t epoch);

  const TriggerConfig& config() const noexcept { return config_; }

 private:
  TriggerConfig config_;
  bool firedBefore_ = false;
  std::size_t lastFired_ = 0;
};

struct ControllerConfig {
  TriggerConfig trigger;
  SraConfig sra;
  /// Route schedule execution through the fault-tolerant MigrationExecutor
  /// instead of assuming plans execute perfectly. Faults from `faults` are
  /// injected (empty plan = clean execution); crashes trigger mid-flight
  /// replanning per `executor`.
  bool useExecutor = false;
  ExecutorConfig executor;
  FaultPlan faults;
  /// Non-owning live data plane handed to the executor (see
  /// control/data_plane.hpp): when set (and useExecutor is on), every
  /// committed move physically copies and cuts over real segment files.
  /// Null keeps execution purely simulated.
  MigrationDataPlane* dataPlane = nullptr;
};

/// What happened in one controller epoch.
struct EpochReport {
  std::size_t epoch = 0;
  bool triggered = false;
  /// Every triggered plan executes; an incomplete schedule executes the
  /// phases it scheduled and reports the rest in unscheduledMoves.
  bool executed = false;
  BalanceMetrics before;
  BalanceMetrics after;
  double scheduleBytes = 0.0;
  std::size_t stagedHops = 0;
  bool scheduleComplete = true;
  /// Relocations that did not happen this epoch: the scheduler could not
  /// place them or (in executor mode) execution never achieved them.
  std::size_t unscheduledMoves = 0;
  double solveSeconds = 0.0;

  // -- Executor-mode failure accounting (zero when useExecutor is off) ----
  /// Bytes actually committed by the executor (scheduleBytes is the plan).
  double executedBytes = 0.0;
  std::size_t retries = 0;
  std::size_t abortedMoves = 0;
  std::size_t replans = 0;
  std::vector<MachineId> crashedMachines;
  /// The executor could not finish: unexecuted moves remain or a crash
  /// could not be replanned around.
  bool degradedCompletion = false;
};

/// Rebuilds `base` with each shard's CPU demand (dimension 0) replaced by
/// a *measured* value — the bridge from the serving layer's ObservedLoad
/// to the control loop. `observedCpu` has one entry per shard, in the
/// same work-units/second as machine capacity[0]; every other instance
/// field (capacities, memory demands, move bytes, placement, replica
/// groups, gamma) is carried over unchanged. The controller then plans on
/// what the cluster actually did instead of what the model predicted.
Instance withObservedCpuDemand(const Instance& base,
                               const std::vector<double>& observedCpu);

class ClusterController {
 public:
  explicit ClusterController(ControllerConfig config)
      : config_(config), trigger_(config.trigger) {}
  virtual ~ClusterController() = default;

  /// Processes one epoch. The instance's initial assignment must be the
  /// cluster's current mapping (as the caller carried it forward); after
  /// the call, mapping() reflects any executed rebalance.
  EpochReport step(const Instance& instance);

  /// Computes the epoch's rebalance plan (default: one SRA pass). Virtual
  /// so tests can inject crafted plans, e.g. incomplete schedules.
  virtual RebalanceResult plan(const Instance& instance);

  /// The cluster's current mapping (empty before the first step).
  const std::vector<MachineId>& mapping() const noexcept { return mapping_; }
  double cumulativeBytes() const noexcept { return cumulativeBytes_; }
  std::size_t rebalancesExecuted() const noexcept { return executed_; }
  const std::vector<EpochReport>& history() const noexcept { return history_; }

 private:
  ControllerConfig config_;
  RebalanceTrigger trigger_;
  std::vector<MachineId> mapping_;
  double cumulativeBytes_ = 0.0;
  std::size_t executed_ = 0;
  std::size_t epoch_ = 0;
  std::vector<EpochReport> history_;
};

}  // namespace resex
