#include "search/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {
namespace {

/// Simulated end-to-end query latency, shared by both simulation paths.
obs::Histogram& simLatencyHistogram() {
  static obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram("search.sim_latency_us");
  return hist;
}

/// Unreplicated fast path: every query fans out to all machines hosting
/// shards, so per-machine work depends only on the hosted corpus fraction
/// and shards on one machine aggregate into a single task.
SimulationResult simulateUnreplicated(const Instance& instance,
                                      const std::vector<MachineId>& mapping,
                                      const std::vector<double>& docFraction,
                                      const QueryGenerator& queries,
                                      const SimulationConfig& config) {
  const std::size_t m = instance.machineCount();
  std::vector<double> machineFraction(m, 0.0);
  for (ShardId s = 0; s < mapping.size(); ++s)
    machineFraction[mapping[s]] += docFraction[s];
  std::vector<double> serviceRate(m);
  for (MachineId mach = 0; mach < m; ++mach)
    serviceRate[mach] =
        instance.machine(mach).capacity[0] * config.workUnitsPerCapacity;

  Rng rng(config.seed);
  SimulationResult result;
  result.machineBusyFraction.assign(m, 0.0);

  std::vector<double> lastFinish(m, 0.0);
  std::vector<double> busy(m, 0.0);
  double now = 0.0;
  for (std::size_t q = 0; q < config.queryCount; ++q) {
    now += rng.exponential(config.arrivalRate);
    const Query query = queries.next(rng);
    double finish = now;
    for (MachineId mach = 0; mach < m; ++mach) {
      if (machineFraction[mach] <= 0.0) continue;
      const double work =
          config.pruningFactor * queries.workOnShard(query, machineFraction[mach]);
      const double service = work / serviceRate[mach];
      const double start = std::max(now, lastFinish[mach]);
      lastFinish[mach] = start + service;
      busy[mach] += service;
      finish = std::max(finish, lastFinish[mach]);
    }
    result.latency.add(finish - now);
    simLatencyHistogram().observe((finish - now) * 1e6);
  }
  result.queries = config.queryCount;
  result.durationSeconds = now;
  if (now > 0.0)
    for (MachineId mach = 0; mach < m; ++mach)
      result.machineBusyFraction[mach] = std::min(1.0, busy[mach] / now);
  return result;
}

/// Replicated path: one replica per group serves each query, picked by
/// power-of-two-choices over the candidate machines' backlogs.
SimulationResult simulateReplicated(const Instance& instance,
                                    const std::vector<MachineId>& mapping,
                                    const std::vector<double>& docFraction,
                                    const QueryGenerator& queries,
                                    const SimulationConfig& config) {
  const std::size_t m = instance.machineCount();
  std::vector<double> serviceRate(m);
  for (MachineId mach = 0; mach < m; ++mach)
    serviceRate[mach] =
        instance.machine(mach).capacity[0] * config.workUnitsPerCapacity;

  // Non-empty replica groups with their (shared) corpus fractions.
  struct Group {
    std::vector<MachineId> machines;
    double fraction = 0.0;
  };
  std::vector<Group> groups;
  for (std::uint32_t g = 0; g < instance.replicaGroupCount(); ++g) {
    const auto members = instance.replicasInGroup(g);
    if (members.empty()) continue;
    Group group;
    group.fraction = docFraction[members.front()];
    for (const ShardId s : members) group.machines.push_back(mapping[s]);
    groups.push_back(std::move(group));
  }

  Rng rng(config.seed);
  SimulationResult result;
  result.machineBusyFraction.assign(m, 0.0);
  std::vector<double> lastFinish(m, 0.0);
  std::vector<double> busy(m, 0.0);
  double now = 0.0;
  for (std::size_t q = 0; q < config.queryCount; ++q) {
    now += rng.exponential(config.arrivalRate);
    const Query query = queries.next(rng);
    double finish = now;
    for (const Group& group : groups) {
      // Power of two choices: the less-backlogged of two *distinct* random
      // replicas (with replacement the draws collide and the policy decays
      // toward plain random routing).
      const std::size_t count = group.machines.size();
      MachineId chosen = group.machines[0];
      if (count > 1) {
        const auto [a, b] = rng.twoDistinct(count);
        chosen = group.machines[a];
        const MachineId other = group.machines[b];
        if (lastFinish[other] < lastFinish[chosen]) chosen = other;
      }
      const double work =
          config.pruningFactor * queries.workOnShard(query, group.fraction);
      const double service = work / serviceRate[chosen];
      const double start = std::max(now, lastFinish[chosen]);
      lastFinish[chosen] = start + service;
      busy[chosen] += service;
      finish = std::max(finish, lastFinish[chosen]);
    }
    result.latency.add(finish - now);
    simLatencyHistogram().observe((finish - now) * 1e6);
  }
  result.queries = config.queryCount;
  result.durationSeconds = now;
  if (now > 0.0)
    for (MachineId mach = 0; mach < m; ++mach)
      result.machineBusyFraction[mach] = std::min(1.0, busy[mach] / now);
  return result;
}

}  // namespace

SimulationResult simulateQueries(const Instance& instance,
                                 const std::vector<MachineId>& mapping,
                                 const std::vector<double>& docFraction,
                                 const QueryGenerator& queries,
                                 const SimulationConfig& config) {
  RESEX_TRACE_SPAN("search.simulate");
  obs::MetricsRegistry::global().counter("search.sim_queries").add(config.queryCount);
  const std::size_t n = instance.shardCount();
  if (mapping.size() != n || docFraction.size() != n)
    throw std::invalid_argument("simulateQueries: size mismatch");
  for (ShardId s = 0; s < n; ++s)
    if (mapping[s] == kNoMachine || mapping[s] >= instance.machineCount())
      throw std::invalid_argument("simulateQueries: unassigned or bad machine");
  if (!(config.pruningFactor > 0.0) || config.pruningFactor > 1.0)
    throw std::invalid_argument("simulateQueries: pruningFactor must be in (0, 1]");

  if (instance.hasReplication())
    return simulateReplicated(instance, mapping, docFraction, queries, config);
  return simulateUnreplicated(instance, mapping, docFraction, queries, config);
}

}  // namespace resex
