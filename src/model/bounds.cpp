#include "model/bounds.hpp"

#include <algorithm>
#include <vector>

namespace resex {

double volumeLowerBound(const Instance& instance) {
  const std::size_t dims = instance.dims();
  const std::size_t k = instance.vacancyTarget();
  ResourceVector demand = instance.totalDemand();

  double bound = 0.0;
  for (std::size_t r = 0; r < dims; ++r) {
    std::vector<double> caps;
    caps.reserve(instance.machineCount());
    double totalCap = 0.0;
    for (const Machine& m : instance.machines()) {
      caps.push_back(m.capacity[r]);
      totalCap += m.capacity[r];
    }
    std::sort(caps.begin(), caps.end());
    double removable = 0.0;
    for (std::size_t i = 0; i < k && i < caps.size(); ++i) removable += caps[i];
    const double usable = totalCap - removable;
    if (usable > 0.0) bound = std::max(bound, demand[r] / usable);
  }
  return bound;
}

double largestShardLowerBound(const Instance& instance) {
  double bound = 0.0;
  for (const Shard& s : instance.shards()) {
    double cheapest = 0.0;
    bool first = true;
    for (const Machine& m : instance.machines()) {
      const double u = s.demand.utilizationAgainst(m.capacity);
      if (first || u < cheapest) {
        cheapest = u;
        first = false;
      }
    }
    bound = std::max(bound, cheapest);
  }
  return bound;
}

double bottleneckLowerBound(const Instance& instance) {
  return std::max(volumeLowerBound(instance), largestShardLowerBound(instance));
}

}  // namespace resex
