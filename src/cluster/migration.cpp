#include "cluster/migration.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {

void recordScheduleExecution(const Schedule& schedule) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("migration.schedules_executed").add();
  registry.counter("migration.moves").add(schedule.moveCount());
  registry.counter("migration.staged_hops").add(schedule.stagedHops);
  registry.counter("migration.bytes_moved")
      .add(static_cast<std::uint64_t>(schedule.totalBytes));
}

std::size_t Schedule::moveCount() const noexcept {
  std::size_t count = 0;
  for (const Phase& p : phases) count += p.moves.size();
  return count;
}

double Schedule::peakTransientUtil() const noexcept {
  double worst = 0.0;
  for (const Phase& p : phases) worst = std::max(worst, p.peakTransientUtil);
  return worst;
}

std::vector<Move> diffMoves(const std::vector<MachineId>& start,
                            const std::vector<MachineId>& target) {
  if (start.size() != target.size())
    throw std::invalid_argument("diffMoves: mapping size mismatch");
  std::vector<Move> moves;
  for (ShardId s = 0; s < start.size(); ++s) {
    if (start[s] == kNoMachine || target[s] == kNoMachine)
      throw std::invalid_argument("diffMoves: mappings must be fully assigned");
    if (start[s] != target[s]) moves.push_back(Move{s, start[s], target[s]});
  }
  return moves;
}

double estimateScheduleSeconds(const Instance& instance, const Schedule& schedule,
                               double bandwidthBytesPerSec) {
  if (bandwidthBytesPerSec <= 0.0)
    throw std::invalid_argument("estimateScheduleSeconds: bandwidth must be > 0");
  double total = 0.0;
  std::vector<double> inBytes(instance.machineCount());
  std::vector<double> outBytes(instance.machineCount());
  for (const Phase& phase : schedule.phases) {
    std::fill(inBytes.begin(), inBytes.end(), 0.0);
    std::fill(outBytes.begin(), outBytes.end(), 0.0);
    for (const Move& mv : phase.moves) {
      const double bytes = instance.shard(mv.shard).moveBytes;
      inBytes[mv.to] += bytes;
      outBytes[mv.from] += bytes;
    }
    double busiest = 0.0;
    for (MachineId m = 0; m < instance.machineCount(); ++m)
      busiest = std::max({busiest, inBytes[m], outBytes[m]});
    total += busiest / bandwidthBytesPerSec;
  }
  return total;
}

std::vector<std::string> verifySchedule(const Instance& instance,
                                        const std::vector<MachineId>& start,
                                        const std::vector<MachineId>& target,
                                        const Schedule& schedule) {
  RESEX_TRACE_SPAN("migration.verify");
  std::vector<std::string> problems;
  auto complain = [&problems](std::string msg) { problems.push_back(std::move(msg)); };

  const std::size_t m = instance.machineCount();
  const std::size_t dims = instance.dims();
  std::vector<MachineId> where = start;
  std::vector<ResourceVector> load(m, ResourceVector(dims));
  for (ShardId s = 0; s < where.size(); ++s) {
    if (where[s] == kNoMachine) {
      complain("start mapping leaves shard " + std::to_string(s) + " unassigned");
      return problems;
    }
    load[where[s]] += instance.shard(s).demand;
  }
  // A start state may legitimately be over capacity (demand drift, machine
  // failure) — that is what a rebalance is called to fix. The invariant the
  // verifier enforces is therefore monotone: no machine may ever exceed
  // max(capacity, its own start load) in any dimension.
  std::vector<ResourceVector> allowance(m, ResourceVector(dims));
  for (MachineId mach = 0; mach < m; ++mach)
    for (std::size_t d = 0; d < dims; ++d)
      allowance[mach][d] = std::max(instance.machine(mach).capacity[d], load[mach][d]);

  double bytes = 0.0;
  for (std::size_t p = 0; p < schedule.phases.size(); ++p) {
    const Phase& phase = schedule.phases[p];
    const std::string tag = "phase " + std::to_string(p) + ": ";
    // Copy window: each target additionally holds gamma (*) demand while
    // every source still holds the full demand.
    std::vector<ResourceVector> copyExtra(m, ResourceVector(dims));
    std::vector<bool> moving(where.size(), false);
    for (const Move& mv : phase.moves) {
      if (mv.shard >= where.size()) {
        complain(tag + "move of unknown shard");
        continue;
      }
      if (moving[mv.shard]) complain(tag + "shard moved twice in one phase");
      moving[mv.shard] = true;
      if (where[mv.shard] != mv.from)
        complain(tag + "shard " + std::to_string(mv.shard) + " is not on its claimed source");
      if (mv.from == mv.to) complain(tag + "degenerate move (from == to)");
      copyExtra[mv.to] +=
          instance.shard(mv.shard).demand.hadamard(instance.transientGamma());
      bytes += instance.shard(mv.shard).moveBytes;
    }
    for (MachineId mach = 0; mach < m; ++mach) {
      const ResourceVector peak = load[mach] + copyExtra[mach];
      if (!peak.fitsWithin(allowance[mach]))
        complain(tag + "copy window overloads machine " + std::to_string(mach));
    }
    // Anti-affinity during the copy window: no replica peer may reside on
    // (or be copying into) a move's target while the copy builds.
    if (instance.hasReplication()) {
      for (const Move& mv : phase.moves) {
        for (const ShardId peer : instance.replicaPeers(mv.shard)) {
          if (peer == mv.shard) continue;
          const bool residentOnTarget =
              peer < where.size() && where[peer] == mv.to;
          bool copyingIntoTarget = false;
          for (const Move& other : phase.moves)
            if (other.shard == peer && other.to == mv.to) copyingIntoTarget = true;
          if (residentOnTarget || copyingIntoTarget)
            complain(tag + "replica co-residency on machine " +
                     std::to_string(mv.to) + " during copy of shard " +
                     std::to_string(mv.shard));
        }
      }
    }
    // Switch-over: commit all moves, then the end state must fit.
    for (const Move& mv : phase.moves) {
      if (mv.shard >= where.size() || where[mv.shard] != mv.from) continue;
      load[mv.from] -= instance.shard(mv.shard).demand;
      load[mv.from].clampNonNegative();
      load[mv.to] += instance.shard(mv.shard).demand;
      where[mv.shard] = mv.to;
    }
    for (MachineId mach = 0; mach < m; ++mach)
      if (!load[mach].fitsWithin(allowance[mach]))
        complain(tag + "end state overloads machine " + std::to_string(mach));
    if (instance.hasReplication()) {
      for (std::uint32_t g = 0; g < instance.replicaGroupCount(); ++g) {
        const auto members = instance.replicasInGroup(g);
        for (std::size_t i = 0; i < members.size(); ++i)
          for (std::size_t j = i + 1; j < members.size(); ++j)
            if (where[members[i]] == where[members[j]])
              complain(tag + "end state co-locates replicas of group " +
                       std::to_string(g));
      }
    }
  }

  if (schedule.complete) {
    for (ShardId s = 0; s < where.size(); ++s)
      if (where[s] != target[s])
        complain("complete schedule leaves shard " + std::to_string(s) +
                 " off its target machine");
    if (!schedule.unscheduled.empty())
      complain("complete schedule reports unscheduled moves");
  } else {
    // Partial schedule: every shard must be either at its target or listed
    // as unscheduled.
    for (ShardId s = 0; s < where.size(); ++s) {
      if (where[s] == target[s]) continue;
      const bool listed = std::any_of(
          schedule.unscheduled.begin(), schedule.unscheduled.end(),
          [s](const Move& mv) { return mv.shard == s; });
      if (!listed)
        complain("incomplete schedule: shard " + std::to_string(s) +
                 " neither at target nor reported unscheduled");
    }
  }

  if (std::abs(bytes - schedule.totalBytes) > 1e-6 * std::max(1.0, bytes))
    complain("totalBytes does not match executed moves");
  return problems;
}

}  // namespace resex
