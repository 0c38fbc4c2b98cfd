#include "control/executor.hpp"

#include <algorithm>
#include <cmath>

#include "control/data_plane.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {

void validateExecutorConfig(const ExecutorConfig& config) {
  if (config.maxRetries > 62)
    detail::throwConfigError("ExecutorConfig.maxRetries", "<= 62",
                             static_cast<double>(config.maxRetries));
  if (config.backoffBaseSeconds <= 0.0)
    detail::throwConfigError("ExecutorConfig.backoffBaseSeconds", "> 0",
                             config.backoffBaseSeconds);
  if (config.backoffCapSeconds < config.backoffBaseSeconds)
    detail::throwConfigError("ExecutorConfig.backoffCapSeconds",
                             ">= backoffBaseSeconds", config.backoffCapSeconds);
  if (config.migrationBandwidth <= 0.0)
    detail::throwConfigError("ExecutorConfig.migrationBandwidth", "> 0",
                             config.migrationBandwidth);
}

namespace {

/// The mapping a schedule intends to reach: its phases applied in order,
/// plus the final targets of the moves it could not schedule.
std::vector<MachineId> intendedTarget(const std::vector<MachineId>& start,
                                      const Schedule& schedule) {
  std::vector<MachineId> target = applySchedule(start, schedule);
  for (const Move& mv : schedule.unscheduled) target[mv.shard] = mv.to;
  return target;
}

/// Closes a plan record: committed flags/unscheduled from the live mapping.
void finalizePlanRecord(PlanRecord& record, const std::vector<MachineId>& mapping) {
  record.committed.unscheduled = diffMoves(mapping, record.target);
  record.committed.complete = record.committed.unscheduled.empty();
}

}  // namespace

MigrationExecutor::MigrationExecutor(ExecutorConfig config)
    : config_(std::move(config)) {
  validateExecutorConfig(config_);
}

ExecutionReport MigrationExecutor::execute(const Instance& instance,
                                           const Schedule& schedule,
                                           const FaultPlan& faults,
                                           MigrationDataPlane* dataPlane) const {
  RESEX_TRACE_SPAN("executor.execute");
  const FaultInjector injector(faults);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& retryCounter = registry.counter("executor.retries");
  obs::Counter& abortCounter = registry.counter("executor.aborted_moves");

  ExecutionReport report;
  std::vector<MachineId> mapping = instance.initialAssignment();
  std::vector<MachineId> crashed;
  std::vector<char> isCrashed(instance.machineCount(), 0);
  for (MachineId m = 0; m < instance.machineCount(); ++m)
    isCrashed[m] = instance.machine(m).crashed;

  const std::size_t machineCount = instance.machineCount();
  const std::size_t dims = instance.dims();
  const ResourceVector& gamma = instance.transientGamma();

  // Live per-machine loads, capacities (collapsed on crash), and the
  // monotone allowance the verifier enforces: no machine may ever exceed
  // max(capacity, its load at plan start) in any dimension. Allowance is
  // per plan — refreshed whenever a replan begins — so the committed
  // record of every plan replays cleanly under verifySchedule.
  std::vector<ResourceVector> load(machineCount, ResourceVector(dims));
  for (ShardId s = 0; s < mapping.size(); ++s)
    load[mapping[s]] += instance.shard(s).demand;
  std::vector<ResourceVector> capacity(machineCount);
  for (MachineId m = 0; m < machineCount; ++m)
    capacity[m] = instance.machine(m).capacity;
  std::vector<ResourceVector> allowance(machineCount, ResourceVector(dims));
  const auto refreshAllowance = [&] {
    for (MachineId m = 0; m < machineCount; ++m)
      for (std::size_t d = 0; d < dims; ++d)
        allowance[m][d] = std::max(capacity[m][d], load[m][d]);
  };
  refreshAllowance();

  // The active plan: the caller's schedule first, replans after crashes.
  Schedule replanned;
  const Schedule* active = &schedule;
  PlanRecord record{mapping, intendedTarget(mapping, schedule), crashed, Schedule{}};
  bool recordOpen = true;

  std::vector<double> inBytes(machineCount), outBytes(machineCount);
  std::vector<ResourceVector> copyExtra(machineCount, ResourceVector(dims));
  std::vector<ResourceVector> endLoad(machineCount, ResourceVector(dims));

  const auto abortMove = [&](const char* reason) {
    ++report.abortedMoves;
    abortCounter.add();
    registry.counter(std::string("executor.aborted.") + reason).add();
  };

  std::size_t globalPhase = 0;
  std::size_t phaseIndex = 0;
  bool stop = false;
  while (!stop && phaseIndex < active->phases.size()) {
    const std::uint64_t phaseStartUs = obs::nowMicros();
    const Phase& phase = active->phases[phaseIndex];

    // Crash cutoff for this phase: moves before it completed their copies
    // when the machine died, the rest are in flight.
    MachineId crashMachine = kNoMachine;
    std::size_t cutoff = phase.moves.size();
    double crashFraction = 0.5;
    if (const auto crash = injector.crashInPhase(globalPhase);
        crash && crash->machine < machineCount && !isCrashed[crash->machine]) {
      crashMachine = crash->machine;
      crashFraction = crash->fraction;
      cutoff = static_cast<std::size_t>(crash->fraction *
                                        static_cast<double>(phase.moves.size()));
    }

    std::fill(inBytes.begin(), inBytes.end(), 0.0);
    std::fill(outBytes.begin(), outBytes.end(), 0.0);
    std::fill(copyExtra.begin(), copyExtra.end(), ResourceVector(dims));
    double worstBackoff = 0.0;
    std::vector<Move> committed;

    for (std::size_t i = 0; i < phase.moves.size(); ++i) {
      const Move& mv = phase.moves[i];
      const Shard& shard = instance.shard(mv.shard);
      const double bytes = shard.moveBytes;
      if (mapping[mv.shard] != mv.from) {
        // An earlier abort left the shard elsewhere; the plan's premise for
        // this move is gone.
        abortMove("stale_source");
        continue;
      }
      // Runtime admission: earlier aborts may have left machines fuller
      // than the plan assumed, so re-check the copy window against the
      // live loads before starting the copy. Anti-affinity likewise: a
      // peer whose departure aborted may still be resident on the target.
      const ResourceVector extra = shard.demand.hadamard(gamma);
      if (!(load[mv.to] + copyExtra[mv.to] + extra).fitsWithin(allowance[mv.to])) {
        abortMove("no_headroom");
        continue;
      }
      // Physical dual-residency admission: the solver proved the transient
      // γ-inflated load fits, but the data plane checks the *byte* budget —
      // can the destination actually hold a second copy of this segment on
      // disk/RAM right now? A plan whose transient footprint exceeds
      // physical headroom is rejected before any bytes move.
      if (dataPlane && !dataPlane->admitCopy(mv.shard, mv.from, mv.to)) {
        abortMove("data_rejected");
        continue;
      }
      bool replicaBlocked = Assignment::replicaConflict(instance, mapping, mv.shard, mv.to);
      for (const Move& other : committed)
        if (other.to == mv.to && other.shard != mv.shard &&
            instance.replicaGroupOf(other.shard) == instance.replicaGroupOf(mv.shard))
          replicaBlocked = true;
      if (replicaBlocked) {
        abortMove("replica_conflict");
        continue;
      }
      const bool touchesCrash =
          crashMachine != kNoMachine && (mv.from == crashMachine || mv.to == crashMachine);
      if (touchesCrash && i >= cutoff) {
        // In flight when the machine died. The plane acts out the partial
        // copy: when the *destination* is the corpse, its temp file stays
        // behind — the orphan recovery GC collects.
        inBytes[mv.to] += bytes;
        outBytes[mv.from] += bytes;
        report.wastedBytes += bytes;
        if (dataPlane) {
          CopyFault fault;
          fault.abandonInFlight = true;
          fault.destinationCrashed = mv.to == crashMachine;
          fault.fraction = crashFraction;
          dataPlane->copyShard(mv.shard, mv.from, mv.to, fault);
        }
        abortMove("crash_in_flight");
        continue;
      }
      // Copy with retry/backoff. The executor draws the fault, the plane
      // realizes it; a live copy can also fail for real (I/O, validation),
      // which consumes a retry exactly like an injected failure.
      bool copied = false;
      double moveBackoff = 0.0;
      for (std::size_t attempt = 0; attempt <= config_.maxRetries; ++attempt) {
        inBytes[mv.to] += bytes;
        outBytes[mv.from] += bytes;
        const bool injectedFail =
            injector.copyAttemptFails(globalPhase, mv.shard, attempt);
        bool ok = !injectedFail;
        if (dataPlane) {
          CopyFault fault;
          fault.failAttempt = injectedFail;
          fault.fraction = injectedFail ? 0.5 : 1.0;
          ok = dataPlane->copyShard(mv.shard, mv.from, mv.to, fault);
        }
        if (ok) {
          copied = true;
          break;
        }
        report.wastedBytes += bytes;
        if (attempt < config_.maxRetries) {
          ++report.retries;
          retryCounter.add();
          moveBackoff += std::min(
              config_.backoffBaseSeconds * std::pow(2.0, static_cast<double>(attempt)),
              config_.backoffCapSeconds);
        }
      }
      worstBackoff = std::max(worstBackoff, moveBackoff);
      if (!copied) {
        abortMove("retries_exhausted");
        continue;
      }
      if (touchesCrash && mv.to == crashMachine) {
        // Copy landed, then the machine died with it. The published file is
        // frozen on the corpse; recovery GC removes it as a stray.
        report.wastedBytes += bytes;
        if (dataPlane)
          dataPlane->discardCopy(mv.shard, mv.to, /*destinationCrashed=*/true);
        abortMove("copy_lost");
        continue;
      }
      committed.push_back(mv);
      copyExtra[mv.to] += extra;
    }

    // End-state admission: departures that aborted keep load on their
    // sources, so the planned switch-over may overshoot a target. Evict
    // the most recent arrival into any machine that would end over its
    // allowance (departures only ever help, so eviction converges).
    for (bool changed = true; changed && !committed.empty();) {
      changed = false;
      for (MachineId m = 0; m < machineCount; ++m) endLoad[m] = load[m];
      for (const Move& mv : committed) {
        const ResourceVector& demand = instance.shard(mv.shard).demand;
        endLoad[mv.from] -= demand;
        endLoad[mv.from].clampNonNegative();
        endLoad[mv.to] += demand;
      }
      for (MachineId m = 0; m < machineCount && !changed; ++m) {
        if (endLoad[m].fitsWithin(allowance[m])) continue;
        for (std::size_t j = committed.size(); j-- > 0;) {
          if (committed[j].to != m) continue;
          report.wastedBytes += instance.shard(committed[j].shard).moveBytes;
          if (dataPlane)
            dataPlane->discardCopy(committed[j].shard, committed[j].to,
                                   /*destinationCrashed=*/false);
          abortMove("end_state_evicted");
          committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }

    // Atomic switch-over of everything that survived the copy window. In
    // live mode the plane's cutover (routing swap + drain + source drop) is
    // the real switch; the executor's bookkeeping mirrors it.
    double committedPhaseBytes = 0.0;
    for (const Move& mv : committed) {
      const Shard& shard = instance.shard(mv.shard);
      if (dataPlane) dataPlane->commitMove(mv.shard, mv.from, mv.to);
      load[mv.from] -= shard.demand;
      load[mv.from].clampNonNegative();
      load[mv.to] += shard.demand;
      mapping[mv.shard] = mv.to;
      committedPhaseBytes += shard.moveBytes;
    }
    const std::size_t committedCount = committed.size();
    report.movesCommitted += committedCount;
    report.committedBytes += committedPhaseBytes;
    record.committed.phases.push_back(Phase{std::move(committed), phase.peakTransientUtil});
    record.committed.totalBytes += committedPhaseBytes;

    // Simulated clock: busiest NIC (degraded bandwidth) plus worst backoff.
    double worstSeconds = 0.0;
    for (MachineId m = 0; m < machineCount; ++m) {
      const double effective =
          config_.migrationBandwidth * injector.bandwidthMultiplier(m);
      worstSeconds =
          std::max(worstSeconds, std::max(inBytes[m], outBytes[m]) / effective);
    }
    report.simulatedSeconds += worstSeconds + worstBackoff;

    ++report.phasesExecuted;
    // Migration phases join the request-scoped timeline so a single
    // Perfetto export lines query tails up against the copy windows and
    // switch-overs that produced them.
    if (obs::TraceRegistry::enabled())
      obs::TraceRegistry::global().emitTimeline(
          "executor.phase", phaseStartUs, obs::nowMicros() - phaseStartUs,
          {{"phase", static_cast<double>(globalPhase)},
           {"moves_committed", static_cast<double>(committedCount)},
           {"committed_bytes", committedPhaseBytes},
           {"simulated_seconds", worstSeconds + worstBackoff},
           {"crash", crashMachine == kNoMachine ? 0.0 : 1.0}});
    ++globalPhase;
    ++phaseIndex;

    if (crashMachine == kNoMachine) continue;

    // -- Machine crash: abandon the rest of the plan and replan. ----------
    isCrashed[crashMachine] = 1;
    crashed.push_back(crashMachine);
    report.crashedMachines.push_back(crashMachine);
    capacity[crashMachine] = ResourceVector(dims, kCrashedCapacity);
    if (dataPlane) dataPlane->machineCrashed(crashMachine);
    registry.counter("executor.machine_crashes").add();
    finalizePlanRecord(record, mapping);
    report.plans.push_back(std::move(record));
    record = PlanRecord{};
    recordOpen = false;

    if (report.replans >= config_.maxReplans) {
      report.replanFailed = true;
      break;
    }
    RESEX_TRACE_SPAN("executor.replan");
    ++report.replans;
    registry.counter("executor.replans").add();
    // Each corpse adds one required vacancy, so none masquerades as a
    // returned exchange machine.
    Sra sra(config_.sra);
    RebalanceResult result = sra.rebalance(instance.afterCrash(crashed, mapping));
    bool evacuates = true;
    for (const MachineId m : result.targetMapping)
      if (isCrashed[m]) evacuates = false;
    if (!evacuates) {
      // The solver fell back (vacancy deficit) or could not clear the
      // corpse: degrade instead of executing a plan that keeps load on a
      // dead machine. The crashed plan's record already lists what never
      // ran.
      report.replanFailed = true;
      break;
    }
    replanned = std::move(result.schedule);
    active = &replanned;
    record = PlanRecord{mapping, intendedTarget(mapping, replanned), crashed, Schedule{}};
    recordOpen = true;
    refreshAllowance();
    phaseIndex = 0;
  }

  if (recordOpen) {
    finalizePlanRecord(record, mapping);
    report.plans.push_back(std::move(record));
  }

  report.finalMapping = std::move(mapping);
  if (!report.plans.empty())
    report.unexecutedMoves = report.plans.back().committed.unscheduled;
  report.degraded = report.replanFailed || !report.unexecutedMoves.empty();

  registry.counter("executor.runs").add();
  registry.counter("executor.moves_committed").add(report.movesCommitted);
  if (report.degraded) registry.counter("executor.degraded_runs").add();
  registry.gauge("executor.simulated_seconds").set(report.simulatedSeconds);
  for (const PlanRecord& plan : report.plans)
    if (plan.committed.moveCount() > 0) recordScheduleExecution(plan.committed);
  return report;
}

}  // namespace resex
