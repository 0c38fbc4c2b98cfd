// Machine-failure recovery via resource exchange.
//
// When a machine dies, its shards must land somewhere *now* — the most
// stringent reassignment a datacenter faces, because every surviving
// machine is already loaded and transient constraints still apply to the
// re-replication copies. The failure is modelled by Instance::afterCrash:
// the dead machine is flagged crashed, so its capacity collapses to
// kCrashedCapacity (any feasible end state evacuates it; the scheduler may
// move shards off it freely but never onto it) and the instance's vacancy
// target rises by one, so the evacuated corpse does not masquerade as one
// of the k returned machines.
#pragma once

#include <span>

#include "core/sra.hpp"

namespace resex {

struct RecoveryConfig {
  SraConfig sra;
  /// Per-machine migration bandwidth used to estimate the recovery time
  /// (bytes/second; the default is a 10 Gbit/s NIC).
  double migrationBandwidth = 1.25e9;
};

struct RecoveryResult {
  /// The failure-modelling instance the plan was computed on.
  RebalanceResult rebalance;
  /// Shards that had to leave the failed machine.
  std::size_t shardsToEvacuate = 0;
  /// True when every one of them was actually moved off by the schedule.
  bool evacuated = false;
  /// Bottleneck utilization over the *surviving* machines after recovery.
  double survivorBottleneck = 0.0;
  /// Estimated wall-clock to execute the recovery schedule (see
  /// estimateScheduleSeconds).
  double estimatedSeconds = 0.0;
};

/// Throws std::invalid_argument with a flag-style message naming the
/// offending field and value when a parameter is out of range
/// (migrationBandwidth <= 0).
void validateRecoveryConfig(const RecoveryConfig& config);

/// Plans and schedules the evacuation of `failed` plus the rebalancing of
/// the survivors, using the exchange machines for headroom. The plan is
/// solved on instance.afterCrash(failed, instance.initialAssignment()).
RecoveryResult recoverFromFailure(const Instance& instance, MachineId failed,
                                  const RecoveryConfig& config = {});

/// Cascading variant: every machine in `failed` crashes at once, each
/// adding one required vacancy, so none of the corpses masquerades as a
/// returned exchange machine. shardsToEvacuate / evacuated /
/// survivorBottleneck aggregate over all crashed machines.
RecoveryResult recoverFromFailure(const Instance& instance,
                                  std::span<const MachineId> failed,
                                  const RecoveryConfig& config = {});

}  // namespace resex
