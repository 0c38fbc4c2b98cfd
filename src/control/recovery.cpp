#include "control/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "control/faults.hpp"

namespace resex {

void validateRecoveryConfig(const RecoveryConfig& config) {
  if (config.migrationBandwidth <= 0.0)
    detail::throwConfigError("RecoveryConfig.migrationBandwidth", "> 0",
                             config.migrationBandwidth);
}

RecoveryResult recoverFromFailure(const Instance& instance, MachineId failed,
                                  const RecoveryConfig& config) {
  const MachineId failedList[] = {failed};
  return recoverFromFailure(instance, std::span<const MachineId>(failedList), config);
}

RecoveryResult recoverFromFailure(const Instance& instance,
                                  std::span<const MachineId> failed,
                                  const RecoveryConfig& config) {
  validateRecoveryConfig(config);
  if (failed.empty())
    throw std::invalid_argument("recoverFromFailure: no failed machines given");

  const Instance crippled = instance.afterCrash(failed, instance.initialAssignment());
  const auto isFailed = [&crippled](MachineId m) { return crippled.machine(m).crashed; };

  RecoveryResult result;
  for (ShardId s = 0; s < instance.shardCount(); ++s)
    if (isFailed(instance.initialMachineOf(s))) ++result.shardsToEvacuate;

  Sra sra(config.sra);
  result.rebalance = sra.rebalance(crippled);

  result.evacuated = true;
  for (ShardId s = 0; s < instance.shardCount(); ++s)
    if (isFailed(result.rebalance.finalMapping[s])) result.evacuated = false;

  Assignment after(crippled, result.rebalance.finalMapping);
  double worst = 0.0;
  for (MachineId m = 0; m < crippled.machineCount(); ++m) {
    if (isFailed(m)) continue;
    worst = std::max(worst, after.utilizationOf(m));
  }
  result.survivorBottleneck = worst;
  result.estimatedSeconds = estimateScheduleSeconds(
      crippled, result.rebalance.schedule, config.migrationBandwidth);
  return result;
}

}  // namespace resex
