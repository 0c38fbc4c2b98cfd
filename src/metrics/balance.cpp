#include "metrics/balance.hpp"

#include <cstdio>

#include "util/stats.hpp"

namespace resex {

std::string BalanceMetrics::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "bottleneck=%.4f mean=%.4f cv=%.4f jain=%.4f vacant=%zu moved=%zu "
                "bytes=%.3g feasible=%s",
                bottleneckUtil, meanUtil, utilCv, jain, vacantMachines, movedShards,
                migratedBytes, feasible ? "yes" : "no");
  return buf;
}

BalanceMetrics measureBalance(const Assignment& assignment) {
  const Instance& instance = assignment.instance();
  BalanceMetrics out;
  out.perDimBottleneck.assign(instance.dims(), 0.0);

  std::vector<double> utils;
  utils.reserve(instance.machineCount());
  std::size_t owedVacancies = instance.exchangeCount();
  for (MachineId m = 0; m < instance.machineCount(); ++m) {
    const double u = assignment.utilizationOf(m);
    out.bottleneckUtil = std::max(out.bottleneckUtil, u);
    const bool vacant = assignment.isVacant(m);
    if (vacant) ++out.vacantMachines;
    const bool crashed = instance.machine(m).crashed;
    if (!crashed && vacant && owedVacancies > 0)
      --owedVacancies;
    else if (!crashed)
      utils.push_back(u);
    const ResourceVector& load = assignment.loadOf(m);
    const ResourceVector& cap = instance.machine(m).capacity;
    for (std::size_t d = 0; d < instance.dims(); ++d) {
      const double dimUtil = cap[d] > 0.0 ? load[d] / cap[d] : 0.0;
      out.perDimBottleneck[d] = std::max(out.perDimBottleneck[d], dimUtil);
      if (load[d] > cap[d] + 1e-6) out.feasible = false;
    }
  }

  OnlineStats stats;
  for (const double u : utils) stats.add(u);
  out.meanUtil = stats.mean();
  out.utilCv = stats.cv();
  out.jain = jainFairness(utils);
  out.movedShards = assignment.movedShardCount();
  out.migratedBytes = assignment.migratedBytes();
  return out;
}

}  // namespace resex
