#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resex {
namespace {

constexpr double kBaseCapacity = 100.0;

/// Scales `values` so they sum to `target` with every entry <= cap
/// (water-filling): entries that would exceed the cap are pinned there and
/// the remainder is rescaled, repeated until stable. Throws if even
/// all-at-cap cannot reach the target.
void waterFill(std::vector<double*>& values, double target, double cap) {
  if (target > cap * static_cast<double>(values.size()) + 1e-9)
    throw std::runtime_error(
        "generateSynthetic: load factor unreachable under the shard-size cap");
  std::vector<double*> free = values;
  double pinnedSum = 0.0;
  for (int round = 0; round < 64 && !free.empty(); ++round) {
    double freeSum = 0.0;
    for (const double* v : free) freeSum += *v;
    if (freeSum <= 0.0) break;
    const double scale = (target - pinnedSum) / freeSum;
    bool pinnedAny = false;
    std::vector<double*> stillFree;
    stillFree.reserve(free.size());
    for (double* v : free) {
      if (*v * scale >= cap) {
        *v = cap;
        pinnedSum += cap;
        pinnedAny = true;
      } else {
        stillFree.push_back(v);
      }
    }
    if (!pinnedAny) {
      for (double* v : stillFree) *v *= scale;
      return;
    }
    free = std::move(stillFree);
  }
  // Everything pinned (or zero-sum remainder): the feasibility check above
  // guarantees the pinned sum is within tolerance of the target.
}

}  // namespace

Instance generateSynthetic(const SyntheticConfig& config) {
  if (config.machines == 0) throw std::invalid_argument("generateSynthetic: no machines");
  if (config.dims == 0 || config.dims > kMaxResourceDims)
    throw std::invalid_argument("generateSynthetic: bad dims");
  if (config.loadFactor <= 0.0 || config.loadFactor >= 1.0)
    throw std::invalid_argument("generateSynthetic: loadFactor must be in (0,1)");
  Rng rng(config.seed);

  const std::size_t dims = config.dims;
  const std::size_t regular = config.machines;
  const std::size_t total = regular + config.exchangeMachines;

  // --- Machines: a few capacity SKUs; exchange machines drawn the same way.
  std::vector<Machine> machines(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto sku = static_cast<std::uint32_t>(rng.below(std::max<std::size_t>(1, config.skuCount)));
    const double scale = std::pow(config.skuRatio, static_cast<double>(sku));
    machines[i].id = static_cast<MachineId>(i);
    machines[i].sku = sku;
    machines[i].capacity = ResourceVector(dims, kBaseCapacity * scale);
  }

  ResourceVector regularCapacity(dims);
  for (std::size_t i = 0; i < regular; ++i) regularCapacity += machines[i].capacity;

  // --- Shards: heavy-tailed base demand, correlated dimensions, hotspots.
  // With replication, demands are drawn per logical shard and copied to
  // each replica (replicas serve an equal share of the logical load).
  const std::size_t repl = std::max<std::size_t>(1, config.replicationFactor);
  if (repl > regular)
    throw std::invalid_argument("generateSynthetic: replication exceeds machines");
  const auto physicalTarget = static_cast<std::size_t>(
      std::llround(static_cast<double>(regular) * config.shardsPerMachine));
  const std::size_t logicalCount = std::max<std::size_t>(1, physicalTarget / repl);
  const std::size_t shardCount = logicalCount * repl;
  std::vector<Shard> shards(shardCount);
  std::vector<std::uint32_t> groups(shardCount);
  const double rho = std::clamp(config.dimCorrelation, 0.0, 1.0);
  for (std::size_t g = 0; g < logicalCount; ++g) {
    ResourceVector demand(dims);
    double base = rng.lognormal(0.0, config.shardSizeSigma);
    if (rng.chance(config.hotspotFraction)) base *= config.hotspotMultiplier;
    demand[0] = base;
    for (std::size_t d = 1; d < dims; ++d) {
      const double indep = rng.lognormal(0.0, config.shardSizeSigma);
      demand[d] = rho * base + (1.0 - rho) * indep;
    }
    for (std::size_t r = 0; r < repl; ++r) {
      const std::size_t s = g * repl + r;
      shards[s].id = static_cast<ShardId>(s);
      shards[s].demand = demand;
      groups[s] = static_cast<std::uint32_t>(g);
    }
  }

  // Normalize every dimension to the requested load factor (so the worst
  // dimension sits exactly at config.loadFactor) while capping any single
  // shard at maxShardFraction of the smallest machine; without the cap, a
  // heavy lognormal tail can mint a shard no machine can host.
  for (std::size_t d = 0; d < dims; ++d) {
    double minCap = machines[0].capacity[d];
    for (std::size_t i = 0; i < regular; ++i)
      minCap = std::min(minCap, machines[i].capacity[d]);
    std::vector<double*> dimDemands;
    dimDemands.reserve(shards.size());
    for (Shard& s : shards) dimDemands.push_back(&s.demand[d]);
    waterFill(dimDemands, config.loadFactor * regularCapacity[d],
              config.maxShardFraction * minCap);
  }
  for (Shard& s : shards)
    s.moveBytes = config.bytesPerDemand * s.demand[dims - 1] * rng.uniform(0.8, 1.2);

  // --- Initial placement: Zipf-weighted "stickiness" per machine creates a
  // skewed but capacity-feasible start (the state rebalancers inherit).
  // On very tight instances a heavy skew can paint itself into a corner;
  // the placement is then retried with progressively less skew (the last
  // attempt is plain best-fit-decreasing) before giving up.
  std::vector<std::size_t> order(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) order[s] = s;
  // Place big shards first so the tail always finds room.
  std::sort(order.begin(), order.end(), [&shards](std::size_t a, std::size_t b) {
    return shards[a].demand.maxComponent() > shards[b].demand.maxComponent();
  });

  std::vector<MachineId> initial;
  for (const double skewScale : {1.0, 0.5, 0.25, 0.0}) {
    const double skew = config.placementSkew * skewScale;
    std::vector<double> stickiness(regular);
    for (std::size_t i = 0; i < regular; ++i) {
      const double rank = static_cast<double>(i + 1);
      stickiness[i] = std::pow(rank, -skew) * machines[i].capacity.sum() /
                      (kBaseCapacity * static_cast<double>(dims));
    }
    rng.shuffle(stickiness);

    std::vector<ResourceVector> loads(regular, ResourceVector(dims));
    std::vector<MachineId> attempt(shardCount, kNoMachine);
    auto fits = [&](std::size_t s, std::size_t machineIdx) {
      if (repl > 1) {
        const std::size_t g = s / repl;
        for (std::size_t r = 0; r < repl; ++r) {
          const std::size_t peer = g * repl + r;
          if (peer != s && attempt[peer] == machineIdx) return false;
        }
      }
      const ResourceVector after = loads[machineIdx] + shards[s].demand;
      return after.fitsWithin(machines[machineIdx].capacity);
    };

    bool placedAll = true;
    for (const std::size_t s : order) {
      MachineId chosen = kNoMachine;
      if (skewScale > 0.0) {
        for (int tries = 0; tries < 24; ++tries) {
          const std::size_t cand = rng.discrete(stickiness);
          if (fits(s, cand)) {
            chosen = static_cast<MachineId>(cand);
            break;
          }
        }
      }
      if (chosen == kNoMachine) {
        // Best-fit by resulting utilization among feasible machines.
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
      if (chosen == kNoMachine) {
        placedAll = false;
        break;
      }
      loads[chosen] += shards[s].demand;
      attempt[s] = chosen;
    }
    if (placedAll) {
      initial = std::move(attempt);
      break;
    }
  }
  if (initial.empty())
    throw std::runtime_error(
        "generateSynthetic: no feasible initial placement; lower loadFactor");

  ResourceVector gamma(dims);
  gamma[0] = config.gammaCpu;
  for (std::size_t d = 1; d < dims; ++d) gamma[d] = config.gammaOther;

  if (repl == 1) groups.clear();  // identity groups; let Instance default them
  return Instance(dims, std::move(machines), std::move(shards), std::move(initial),
                  config.exchangeMachines, std::move(gamma), std::move(groups));
}

Instance tinyTestInstance(std::uint64_t seed, std::size_t machines, std::size_t shards,
                          std::size_t exchange, double loadFactor) {
  SyntheticConfig config;
  config.seed = seed;
  config.machines = machines;
  config.exchangeMachines = exchange;
  config.shardsPerMachine =
      static_cast<double>(shards) / static_cast<double>(machines);
  config.dims = 2;
  config.loadFactor = loadFactor;
  config.skuCount = 1;
  config.hotspotFraction = 0.0;
  return generateSynthetic(config);
}

}  // namespace resex
