// Fault-tolerant migration executor.
//
// MigrationScheduler::build emits a plan; this module *runs* it against a
// live mapping, surviving the failures production migration actually sees:
//   * a copy fails          -> retried with capped exponential backoff;
//   * retries exhaust       -> the move aborts, the shard stays put, and
//                              every later move stale-sourced by the abort
//                              aborts too (no phantom positions);
//   * a machine crashes     -> in-flight copies touching it abort, copies
//     mid-phase                already landed on it are lost, completed
//                              copies *off* it still commit (the data is
//                              safe on the target), the rest of the plan is
//                              abandoned, and the executor REPLANS: a fresh
//                              SRA pass solves Instance::afterCrash (every
//                              crash so far flagged, the partially
//                              committed mapping as the start) and computes
//                              an evacuation schedule. Cascading crashes
//                              replan again, up to maxReplans.
//
// Degradation is graceful by construction: when replanning fails or a
// budget is exhausted the executor returns a valid partial result — the
// committed mapping plus the list of relocations that never happened —
// instead of throwing. Phases commit switch-overs atomically, so the
// mapping is always a real cluster state; with gamma == 1 every committed
// prefix also stays within the copy-window allowance the scheduler proved
// (see DESIGN.md "Failure model & execution semantics").
#pragma once

#include "control/faults.hpp"
#include "core/sra.hpp"

namespace resex {

class MigrationDataPlane;

struct ExecutorConfig {
  /// Copy re-attempts per move after the first try (0 = fail fast).
  std::size_t maxRetries = 3;
  /// Backoff before retry r is backoffBaseSeconds * 2^r, capped.
  double backoffBaseSeconds = 0.5;
  double backoffCapSeconds = 30.0;
  /// Mid-flight replans allowed before degrading (each machine crash after
  /// the budget is spent ends execution with a partial result).
  std::size_t maxReplans = 2;
  /// Per-machine NIC bandwidth (bytes/second) for the simulated clock.
  double migrationBandwidth = 1.25e9;
  /// Solver configuration of mid-flight replans. Keep polish off and
  /// iteration budgets bounded when bit-for-bit determinism matters
  /// (polish is wall-clock bounded). The compensation target is the replan
  /// instance's vacancyTarget(): k plus one per crashed machine.
  SraConfig sra;
};

/// Throws std::invalid_argument with a flag-style message (field + value)
/// when a parameter is out of range.
void validateExecutorConfig(const ExecutorConfig& config);

/// One schedule the executor worked through: the original plan or a
/// mid-flight replan. `committed` holds exactly the moves that switched
/// over, phase by phase, with `complete`/`unscheduled` reflecting the
/// outcome — so verifySchedule(instance.afterCrash(crashedBefore, start),
/// start, target, committed) audits what actually happened.
struct PlanRecord {
  /// Mapping when the plan started executing.
  std::vector<MachineId> start;
  /// Mapping the plan aimed for (schedule end state plus its unscheduled
  /// intents).
  std::vector<MachineId> target;
  /// Machines that crashed during execution before the plan started (its
  /// instance is the executed instance after these crashes).
  std::vector<MachineId> crashedBefore;
  Schedule committed;
};

struct ExecutionReport {
  /// The committed mapping — always fully assigned and a real cluster
  /// state, even on degraded runs.
  std::vector<MachineId> finalMapping;
  /// Machines that crashed during execution, in crash order.
  std::vector<MachineId> crashedMachines;
  /// Relocations the run never achieved (empty on a clean run): the diff
  /// from finalMapping to the last active plan's target.
  std::vector<Move> unexecutedMoves;
  std::size_t phasesExecuted = 0;
  std::size_t movesCommitted = 0;
  /// Copy re-attempts across all moves.
  std::size_t retries = 0;
  /// Moves that did not commit: stale source, retries exhausted, aborted
  /// in flight by a crash, or copy lost with a crashed target.
  std::size_t abortedMoves = 0;
  std::size_t replans = 0;
  /// Bytes of committed copies (matches the committed schedules' totals).
  double committedBytes = 0.0;
  /// Bytes burned without a commit: failed attempts, copies lost with a
  /// crashed target, and in-flight copies a crash aborted.
  double wastedBytes = 0.0;
  /// Simulated wall clock: per-phase busiest-NIC copy time (degradation
  /// multipliers applied, retries re-transfer) plus retry backoff.
  double simulatedSeconds = 0.0;
  /// A crash could not be replanned around (budget spent or the solver
  /// could not evacuate the corpse).
  bool replanFailed = false;
  /// True when unexecuted moves remain or replanning failed.
  bool degraded = false;
  /// Every plan worked through, for auditing (original first).
  std::vector<PlanRecord> plans;

  bool complete() const noexcept { return !degraded; }
};

class MigrationExecutor {
 public:
  /// Validates the config (see validateExecutorConfig).
  explicit MigrationExecutor(ExecutorConfig config = {});

  /// Runs `schedule` from instance.initialAssignment() under `faults`.
  /// Never throws on execution failures — inspect the report. Throws
  /// std::invalid_argument only for a malformed fault plan.
  ///
  /// `dataPlane`, when non-null, switches execution to *live* mode: every
  /// fault outcome the executor draws is realized physically — segments
  /// copied between machine directories under bandwidth throttling, failed
  /// attempts act out partial copies, crashes strand temp files on the dead
  /// destination, and each committed move cuts serving over atomically
  /// (see control/data_plane.hpp). The plane adds one abort reason of its
  /// own: `data_rejected`, dual-residency admission against the machines'
  /// physical byte budgets. All abstract accounting (bytes, simulated
  /// clock, plan records) is identical with and without a plane.
  ExecutionReport execute(const Instance& instance, const Schedule& schedule,
                          const FaultPlan& faults = {},
                          MigrationDataPlane* dataPlane = nullptr) const;

  const ExecutorConfig& config() const noexcept { return config_; }

 private:
  ExecutorConfig config_;
};

}  // namespace resex
