#include "search/builder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resex {

SearchWorkload::SearchWorkload(const SearchWorkloadConfig& config)
    : config_(config), corpus_(config.corpus), queries_(corpus_, config.queryModel) {
  if (config.shardCount == 0) throw std::invalid_argument("SearchWorkload: no shards");
  if (config.machines == 0) throw std::invalid_argument("SearchWorkload: no machines");

  Rng rng(config.seed);
  const std::size_t repl = std::max<std::size_t>(1, config.replicationFactor);
  if (repl > config.machines)
    throw std::invalid_argument("SearchWorkload: replication exceeds machines");

  // Partition fractions, repeated across each partition's replicas.
  std::vector<double> partitionFraction(config.shardCount);
  double total = 0.0;
  for (double& f : partitionFraction) {
    f = rng.lognormal(0.0, config.shardSizeSigma);
    total += f;
  }
  for (double& f : partitionFraction) f /= total;

  docFraction_.resize(config.shardCount * repl);
  indexBytes_.resize(docFraction_.size());
  for (std::size_t g = 0; g < config.shardCount; ++g) {
    for (std::size_t r = 0; r < repl; ++r) {
      const std::size_t s = g * repl + r;
      docFraction_[s] = partitionFraction[g];
      indexBytes_[s] =
          corpus_.totalPostings() * partitionFraction[g] * config.bytesPerPosting;
    }
  }

  // Capacity sizing: at peak QPS the cluster-wide CPU (and index-bytes
  // memory) load factors hit the configured targets. Each query is served
  // once per partition; replicas split that work, and each replica holds
  // a full copy of the partition index.
  double peakCpuDemand = 0.0;
  for (std::size_t g = 0; g < config.shardCount; ++g)
    peakCpuDemand += config.peakQps * queries_.expectedWorkOnShard(partitionFraction[g]);
  cpuCapacityPerMachine_ = peakCpuDemand / (config.cpuLoadFactorAtPeak *
                                            static_cast<double>(config.machines));
  const double totalIndexBytes = corpus_.totalPostings() * config.bytesPerPosting *
                                 static_cast<double>(repl);
  memCapacityPerMachine_ = totalIndexBytes / (config.memLoadFactor *
                                              static_cast<double>(config.machines));
}

ResourceVector SearchWorkload::shardDemand(ShardId s, double qps) const {
  const double repl =
      static_cast<double>(std::max<std::size_t>(1, config_.replicationFactor));
  ResourceVector demand(2);
  demand[0] = qps * queries_.expectedWorkOnShard(docFraction_.at(s)) / repl;
  demand[1] = indexBytes_.at(s);
  return demand;
}

Instance SearchWorkload::buildInstance(
    double qps, const std::vector<MachineId>* currentMapping) const {
  const std::size_t regular = config_.machines;
  const std::size_t total = regular + config_.exchangeMachines;
  const std::size_t repl = std::max<std::size_t>(1, config_.replicationFactor);
  const std::size_t physical = physicalShardCount();

  std::vector<Machine> machines(total);
  for (std::size_t i = 0; i < total; ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].sku = 0;
    machines[i].capacity = ResourceVector{cpuCapacityPerMachine_, memCapacityPerMachine_};
  }

  std::vector<Shard> shards(physical);
  std::vector<std::uint32_t> groups(physical);
  for (ShardId s = 0; s < physical; ++s) {
    shards[s].id = s;
    shards[s].demand = shardDemand(s, qps);
    shards[s].moveBytes = indexBytes_[s];
    groups[s] = static_cast<std::uint32_t>(s / repl);
  }

  std::vector<MachineId> initial;
  if (currentMapping != nullptr) {
    initial = *currentMapping;
  } else {
    // Skewed feasible bring-up placement (same scheme as the synthetic
    // generator): weighted-random with a best-fit fallback.
    Rng rng(config_.seed ^ 0xABCDEF12345ULL);
    std::vector<double> stickiness(regular);
    for (std::size_t i = 0; i < regular; ++i)
      stickiness[i] = std::pow(static_cast<double>(i + 1), -config_.placementSkew);
    rng.shuffle(stickiness);

    std::vector<ResourceVector> loads(regular, ResourceVector(2));
    initial.assign(physical, kNoMachine);
    std::vector<ShardId> order(physical);
    for (ShardId s = 0; s < physical; ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&shards](ShardId a, ShardId b) {
      return shards[a].demand.maxComponent() > shards[b].demand.maxComponent();
    });
    auto fits = [&](ShardId s, std::size_t cand) {
      if (repl > 1) {
        const std::size_t g = s / repl;
        for (std::size_t r = 0; r < repl; ++r) {
          const ShardId peer = static_cast<ShardId>(g * repl + r);
          if (peer != s && initial[peer] == cand) return false;
        }
      }
      return (loads[cand] + shards[s].demand).fitsWithin(machines[cand].capacity);
    };
    for (const ShardId s : order) {
      MachineId chosen = kNoMachine;
      for (int attempt = 0; attempt < 24; ++attempt) {
        const std::size_t cand = rng.discrete(stickiness);
        if (fits(s, cand)) {
          chosen = static_cast<MachineId>(cand);
          break;
        }
      }
      if (chosen == kNoMachine) {
        double bestUtil = 0.0;
        for (std::size_t cand = 0; cand < regular; ++cand) {
          if (!fits(s, cand)) continue;
          const double util = (loads[cand] + shards[s].demand)
                                  .utilizationAgainst(machines[cand].capacity);
          if (chosen == kNoMachine || util < bestUtil) {
            chosen = static_cast<MachineId>(cand);
            bestUtil = util;
          }
        }
      }
      if (chosen == kNoMachine)
        throw std::runtime_error("SearchWorkload: no feasible bring-up placement");
      loads[chosen] += shards[s].demand;
      initial[s] = chosen;
    }
  }

  // CPU copies at 30% overhead; index bytes (memory) duplicate fully.
  if (repl == 1) groups.clear();  // identity groups; let Instance default them
  return Instance(2, std::move(machines), std::move(shards), std::move(initial),
                  config_.exchangeMachines, ResourceVector{0.3, 1.0},
                  std::move(groups));
}

SimulationResult SearchWorkload::simulate(const std::vector<MachineId>& mapping,
                                          double qps, std::size_t queryCount,
                                          std::uint64_t seed) const {
  const Instance instance = buildInstance(qps, &mapping);
  SimulationConfig sim;
  sim.seed = seed;
  sim.arrivalRate = qps;
  sim.queryCount = queryCount;
  sim.workUnitsPerCapacity = 1.0;  // capacities are already work-units/s
  return simulateQueries(instance, mapping, docFraction_, queries_, sim);
}

}  // namespace resex
