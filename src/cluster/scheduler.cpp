#include "cluster/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {
namespace {

/// A relocation still to be realized: the shard's eventual destination.
/// The current position lives in `where` (staging moves it mid-flight).
struct Pending {
  ShardId shard;
  MachineId finalTarget;
};

/// Mutable schedule-construction state shared by the helpers below.
struct Builder {
  const Instance* instance;
  const SchedulerOptions* options;
  std::vector<MachineId> where;
  std::vector<ResourceVector> load;
  std::vector<Pending> pending;
  std::vector<std::size_t> hops;  // staging/eviction hops taken per shard
  Schedule schedule;
  std::size_t maxTotalHops = 0;
  std::size_t extraHops = 0;

  // Per-phase scratch.
  Phase phase;
  std::vector<ResourceVector> copyExtra;
  std::vector<ResourceVector> endLoad;
  std::vector<bool> movedThisPhase;
  std::vector<MachineId> phaseDest;  // destination accepted this phase, or kNoMachine

  std::size_t machineCount() const { return instance->machineCount(); }

  void beginPhase() {
    phase = Phase{};
    copyExtra.assign(machineCount(), ResourceVector(instance->dims()));
    endLoad = load;
    std::fill(movedThisPhase.begin(), movedThisPhase.end(), false);
    std::fill(phaseDest.begin(), phaseDest.end(), kNoMachine);
  }

  /// Anti-affinity during this phase: a replica peer either resides on
  /// `to` when the phase starts (co-present during the copy window) or is
  /// itself copying into `to` this phase.
  bool replicaBlocked(ShardId s, MachineId to) const {
    if (!instance->hasReplication()) return false;
    for (const ShardId peer : instance->replicaPeers(s)) {
      if (peer == s) continue;
      if (where[peer] == to || phaseDest[peer] == to) return true;
    }
    return false;
  }

  /// Tries to add the move s -> to to the current phase under the copy-
  /// window, end-state, and anti-affinity constraints. Updates phase
  /// bookkeeping only.
  bool tryAccept(ShardId s, MachineId to) {
    const MachineId from = where[s];
    if (from == to || movedThisPhase[s]) return false;
    if (replicaBlocked(s, to)) return false;
    const Shard& shard = instance->shard(s);
    const ResourceVector extra = shard.demand.hadamard(instance->transientGamma());
    const ResourceVector copyPeak = load[to] + copyExtra[to] + extra;
    if (!copyPeak.fitsWithin(instance->machine(to).capacity)) return false;
    const ResourceVector after = endLoad[to] + shard.demand;
    if (!after.fitsWithin(instance->machine(to).capacity)) return false;
    copyExtra[to] += extra;
    endLoad[to] = after;
    endLoad[from] -= shard.demand;
    endLoad[from].clampNonNegative();
    movedThisPhase[s] = true;
    phaseDest[s] = to;
    phase.moves.push_back(Move{s, from, to});
    schedule.totalBytes += shard.moveBytes;
    return true;
  }

  /// Commits the current phase: records the transient peak, applies the
  /// switch-overs to `load`/`where`.
  void commitPhase() {
    double peak = 0.0;
    for (MachineId mach = 0; mach < machineCount(); ++mach) {
      const ResourceVector window = load[mach] + copyExtra[mach];
      peak = std::max(peak,
                      window.utilizationAgainst(instance->machine(mach).capacity));
    }
    phase.peakTransientUtil = peak;
    for (const Move& mv : phase.moves) {
      load[mv.from] -= instance->shard(mv.shard).demand;
      load[mv.from].clampNonNegative();
      load[mv.to] += instance->shard(mv.shard).demand;
      where[mv.shard] = mv.to;
    }
    schedule.phases.push_back(std::move(phase));
  }

  /// Fills the current phase with direct (final-target) moves; erases the
  /// completed entries from `pending`. Returns how many were accepted.
  std::size_t fillDirect() {
    std::size_t accepted = 0;
    for (auto it = pending.begin(); it != pending.end();) {
      if (tryAccept(it->shard, it->finalTarget)) {
        ++accepted;
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    return accepted;
  }

  bool hopBudgetLeft(ShardId s) const {
    return extraHops < maxTotalHops && hops[s] < options->maxHopsPerShard;
  }

  /// Best intermediate machine for parking shard `s` right now: prefers
  /// vacant machines, then lowest resulting utilization. kNoMachine if none.
  MachineId bestIntermediate(ShardId s, MachineId avoidA, MachineId avoidB) const {
    const Shard& shard = instance->shard(s);
    MachineId best = kNoMachine;
    double bestScore = 0.0;
    for (MachineId via = 0; via < machineCount(); ++via) {
      if (via == avoidA || via == avoidB) continue;
      if (replicaBlocked(s, via)) continue;
      const ResourceVector copyPeak =
          load[via] + copyExtra[via] +
          shard.demand.hadamard(instance->transientGamma());
      if (!copyPeak.fitsWithin(instance->machine(via).capacity)) continue;
      const ResourceVector after = endLoad[via] + shard.demand;
      if (!after.fitsWithin(instance->machine(via).capacity)) continue;
      const bool vacant = load[via].isZero() && copyExtra[via].isZero();
      const double util = after.utilizationAgainst(instance->machine(via).capacity);
      const double score = (vacant ? 0.0 : 1.0) + util;
      if (best == kNoMachine || score < bestScore) {
        best = via;
        bestScore = score;
      }
    }
    return best;
  }

  /// Deadlock breaker 1 — stage a blocked mover on an intermediate
  /// machine (it stays pending toward its final target).
  bool stageBlockedMover() {
    for (const Pending& p : pending) {
      const ShardId s = p.shard;
      if (!hopBudgetLeft(s)) continue;
      const MachineId via = bestIntermediate(s, where[s], p.finalTarget);
      if (via == kNoMachine) continue;
      if (!tryAccept(s, via)) continue;
      ++hops[s];
      ++extraHops;
      ++schedule.stagedHops;
      return true;
    }
    return false;
  }

  /// Deadlock breaker 2 — make room at a blocked target by evicting a
  /// resident shard (smallest first). Residents that were not pending get
  /// a new pending entry returning them to the machine they were evicted
  /// from, so the final assignment is unchanged.
  bool evictFromBlockedTarget() {
    for (const Pending& p : pending) {
      const MachineId target = p.finalTarget;
      // Residents of the target, smallest demand first (cheap to relocate,
      // and small departures often release exactly the missing headroom).
      std::vector<ShardId> residents;
      for (ShardId s = 0; s < where.size(); ++s)
        if (where[s] == target) residents.push_back(s);
      std::sort(residents.begin(), residents.end(), [this](ShardId a, ShardId b) {
        return instance->shard(a).demand.maxComponent() <
               instance->shard(b).demand.maxComponent();
      });
      for (const ShardId victim : residents) {
        if (movedThisPhase[victim] || !hopBudgetLeft(victim)) continue;
        const MachineId via = bestIntermediate(victim, target, kNoMachine);
        if (via == kNoMachine) continue;
        if (!tryAccept(victim, via)) continue;
        ++hops[victim];
        ++extraHops;
        ++schedule.stagedHops;
        // If the victim was not already in flight, it must come back.
        const bool wasPending = std::any_of(
            pending.begin(), pending.end(),
            [victim](const Pending& q) { return q.shard == victim; });
        if (!wasPending) pending.push_back(Pending{victim, target});
        return true;
      }
    }
    return false;
  }

  /// Failure cleanup: pending shards that cannot reach their target are
  /// sent back toward the machine they started on when that is feasible,
  /// so an incomplete schedule does not strand load on intermediates.
  void cleanupStrays(const std::vector<MachineId>& start) {
    bool progress = true;
    while (progress) {
      progress = false;
      beginPhase();
      for (auto it = pending.begin(); it != pending.end();) {
        bool done = false;
        if (tryAccept(it->shard, it->finalTarget)) {
          done = true;  // late luck: the target opened up after all
        } else if (where[it->shard] != start[it->shard] &&
                   tryAccept(it->shard, start[it->shard])) {
          // Returned home; still off target, stays accounted below.
        }
        it = done ? pending.erase(it) : std::next(it);
      }
      if (!phase.moves.empty()) {
        commitPhase();
        progress = true;
      }
    }
  }
};

}  // namespace

Schedule MigrationScheduler::build(const Instance& instance,
                                   const std::vector<MachineId>& start,
                                   const std::vector<MachineId>& target) const {
  RESEX_TRACE_SPAN("scheduler.build");
  if (start.size() != instance.shardCount() || target.size() != instance.shardCount())
    throw std::invalid_argument("MigrationScheduler: mapping size mismatch");

  Builder b;
  b.instance = &instance;
  b.options = &options_;
  b.where = start;
  b.load.assign(instance.machineCount(), ResourceVector(instance.dims()));
  b.hops.assign(instance.shardCount(), 0);
  b.movedThisPhase.assign(instance.shardCount(), false);
  b.phaseDest.assign(instance.shardCount(), kNoMachine);
  for (ShardId s = 0; s < b.where.size(); ++s) {
    if (b.where[s] == kNoMachine || target[s] == kNoMachine)
      throw std::invalid_argument("MigrationScheduler: mappings must be fully assigned");
    b.load[b.where[s]] += instance.shard(s).demand;
  }

  for (ShardId s = 0; s < b.where.size(); ++s)
    if (b.where[s] != target[s]) b.pending.push_back(Pending{s, target[s]});

  // Big shards first: they are the hardest to place, and late-phase space
  // is scarcer.
  std::sort(b.pending.begin(), b.pending.end(), [&](const Pending& x, const Pending& y) {
    const double dx = instance.shard(x.shard).demand.maxComponent();
    const double dy = instance.shard(y.shard).demand.maxComponent();
    if (dx != dy) return dx > dy;
    return x.shard < y.shard;
  });

  b.maxTotalHops = b.pending.size() +
                   static_cast<std::size_t>(options_.maxStagingFactor *
                                            static_cast<double>(b.pending.size())) +
                   16;

  while (!b.pending.empty()) {
    b.beginPhase();
    b.fillDirect();
    if (b.phase.moves.empty()) {
      bool broke = false;
      if (options_.allowStaging)
        broke = b.stageBlockedMover() || b.evictFromBlockedTarget();
      if (!broke) {
        b.schedule.complete = false;
        break;
      }
      // After a deadlock-breaking hop, other direct moves may have become
      // phase-compatible; fill the rest of the phase.
      b.fillDirect();
    }
    b.commitPhase();
  }

  if (!b.schedule.complete) {
    b.cleanupStrays(start);
    for (const Pending& p : b.pending)
      b.schedule.unscheduled.push_back(Move{p.shard, b.where[p.shard], p.finalTarget});
  }

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("scheduler.builds").add();
  registry.counter("scheduler.placements").add(b.schedule.moveCount());
  registry.counter("scheduler.phases").add(b.schedule.phaseCount());
  registry.counter("scheduler.staged_hops").add(b.schedule.stagedHops);
  registry.counter("scheduler.bytes_scheduled")
      .add(static_cast<std::uint64_t>(b.schedule.totalBytes));
  if (!b.schedule.complete) registry.counter("scheduler.incomplete").add();
  return b.schedule;
}

}  // namespace resex
