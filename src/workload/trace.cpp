#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace resex {

Trace::Trace(const Instance& base, TraceConfig config,
             std::vector<std::vector<ResourceVector>> demands)
    : base_(&base), config_(config), demands_(std::move(demands)) {
  for (const auto& epoch : demands_)
    if (epoch.size() != base.shardCount())
      throw std::invalid_argument("Trace: demand row size mismatch");
}

double Trace::epochLoadFactor(std::size_t epoch) const {
  ResourceVector total(base_->dims());
  for (const ResourceVector& w : demands_.at(epoch)) total += w;
  return total.utilizationAgainst(base_->totalRegularCapacity());
}

Instance Trace::instanceForEpoch(std::size_t epoch,
                                 const std::vector<MachineId>& currentMapping) const {
  return base_->withDemands(demands_.at(epoch), currentMapping);
}

Trace generateTrace(const Instance& base, const TraceConfig& config) {
  if (config.epochs == 0) throw std::invalid_argument("generateTrace: zero epochs");
  Rng rng(config.seed);
  const std::size_t n = base.shardCount();
  const std::size_t dims = base.dims();

  std::vector<double> phase(n);
  for (std::size_t s = 0; s < n; ++s)
    phase[s] = rng.normal(0.0, config.shardPhaseJitterHours);

  std::vector<double> drift(n, 1.0);
  std::vector<double> hotspot(n, 1.0);

  std::vector<std::vector<ResourceVector>> demands(config.epochs);
  for (std::size_t e = 0; e < config.epochs; ++e) {
    const double hour = std::fmod(static_cast<double>(e) * config.epochHours, 24.0);
    demands[e].reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      drift[s] *= rng.lognormal(0.0, config.driftSigma);
      // Pull drift gently back toward 1 so no shard diverges without bound.
      drift[s] = std::pow(drift[s], 0.98);
      if (hotspot[s] > 1.0)
        hotspot[s] = 1.0 + (hotspot[s] - 1.0) * config.hotspotDecay;
      if (rng.chance(config.hotspotRate)) hotspot[s] = config.hotspotMultiplier;
      const double mult =
          config.diurnal.multiplier(hour, phase[s]) * drift[s] * hotspot[s];
      demands[e].push_back(base.shard(static_cast<ShardId>(s)).demand * mult);
    }
  }

  // Normalize so the worst epoch's load factor equals peakLoadFactor.
  const ResourceVector capacity = base.totalRegularCapacity();
  double worst = 0.0;
  for (const auto& epoch : demands) {
    ResourceVector total(dims);
    for (const ResourceVector& w : epoch) total += w;
    worst = std::max(worst, total.utilizationAgainst(capacity));
  }
  if (worst > 0.0) {
    const double scale = config.peakLoadFactor / worst;
    for (auto& epoch : demands)
      for (ResourceVector& w : epoch) w *= scale;
  }

  return Trace(base, config, std::move(demands));
}

}  // namespace resex
