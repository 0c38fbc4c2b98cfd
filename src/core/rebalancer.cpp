#include "core/rebalancer.hpp"

#include "cluster/scheduler.hpp"

namespace resex {

std::vector<MachineId> applySchedule(const std::vector<MachineId>& start,
                                     const Schedule& schedule) {
  std::vector<MachineId> where = start;
  for (const Phase& phase : schedule.phases)
    for (const Move& mv : phase.moves) where.at(mv.shard) = mv.to;
  return where;
}

RebalanceResult finalizeResult(const Instance& instance, std::string algorithm,
                               std::vector<MachineId> targetMapping,
                               const SchedulerOptions& schedulerOptions,
                               double solveSeconds) {
  RebalanceResult result;
  result.algorithm = std::move(algorithm);
  result.solveSeconds = solveSeconds;
  result.targetMapping = std::move(targetMapping);

  const std::vector<MachineId>& start = instance.initialAssignment();
  MigrationScheduler scheduler(schedulerOptions);
  result.schedule = scheduler.build(instance, start, result.targetMapping);
  result.finalMapping = applySchedule(start, result.schedule);

  const Objective objective(instance.vacancyTarget());
  Assignment beforeState(instance);
  Assignment afterState(instance, result.finalMapping);
  result.before = measureBalance(beforeState);
  result.after = measureBalance(afterState);
  result.finalScore = objective.evaluate(afterState);
  return result;
}

}  // namespace resex
