// The solver layers at T4 scale, measured from outside: micro_bench's
// instance shape (800 machines plus 32 exchange machines, 16000 shards, two
// dimensions, load 0.8), one Sra::rebalance with a fixed LNS iteration
// budget, a single search and no wall-clock-bounded polish, then the same
// LNS search and schedule synthesis timed on their own. live_migration's
// six-shard replans touch lns, core, cluster and model only for
// milliseconds, so its traced run measures them here.
//
// A rebalance_t4 workload timing repeated T4 rebalances end to end was
// dropped: being purely CPU-bound, its median moved by 0.26 (interquartile
// range over median, ten seeds) and by 1.7x between rounds with the load
// of the shared host, beyond any bound the benchmark may set.

#include "cluster/assignment.hpp"
#include "cluster/scheduler.hpp"
#include "core/sra.hpp"
#include "lns/lns.hpp"
#include "model/bounds.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace resex::perfbench {

void measureSolverLayers(std::uint64_t seed, RunResult& result, SpanStore& spans) {
  SyntheticConfig t4;
  t4.seed = 12345;  // micro_bench's instance; the run's seed drives the search
  t4.machines = 800;
  t4.exchangeMachines = 32;
  t4.shardsPerMachine = 20.0;
  t4.dims = 2;
  t4.loadFactor = 0.8;
  const Instance instance = generateSynthetic(t4);

  SraConfig config;
  config.lns.seed = seed;
  config.lns.maxIterations = 250;  // fixed work, whatever the host's speed
  config.lns.timeBudgetSeconds = 1e6;
  config.portfolioSearches = 1;
  config.polish = false;  // stops on a wall-clock budget

  Sra sra(config);
  const auto rebalanceStart = Clock::now();
  const RebalanceResult rebalanced = sra.rebalance(instance);
  const auto rebalanceEnd = Clock::now();
  spans.record(spans.intern("core.Sra.rebalance"), 1, 0, rebalanceStart, rebalanceEnd);

  // The correctness gate: the schedule replays from the initial placement
  // through every capacity and transient constraint to its end state, and
  // that end state returns the borrowed exchange machines vacant.
  for (const std::string& problem :
       verifySchedule(instance, instance.initialAssignment(), rebalanced.targetMapping,
                      rebalanced.schedule))
    result.fail("verifySchedule: " + problem);
  const Assignment final(instance, rebalanced.finalMapping);
  if (final.vacantCount() < instance.exchangeCount())
    result.fail("final mapping leaves fewer vacant machines than exchange machines");
  result.details["solver.planned_moves"] = static_cast<double>(
      diffMoves(instance.initialAssignment(), rebalanced.targetMapping).size());
  result.details["solver.unscheduled_moves"] =
      static_cast<double>(rebalanced.schedule.unscheduled.size());

  LnsSolver solver(instance,
                   Objective::forInstance(instance, config.spreadWeight, config.bytesWeight),
                   config.lns);
  const auto searchStart = Clock::now();
  solver.solve();
  const auto searchEnd = Clock::now();
  spans.record(spans.intern("lns.LnsSolver.solve"), 2, 0, searchStart, searchEnd);

  const MigrationScheduler scheduler(config.scheduler);
  const auto scheduleStart = Clock::now();
  const Schedule schedule =
      scheduler.build(instance, instance.initialAssignment(), rebalanced.targetMapping);
  const auto scheduleEnd = Clock::now();
  spans.record(spans.intern("cluster.MigrationScheduler.build"), 3, 0, scheduleStart,
               scheduleEnd);

  auto& m = result.metrics;
  const LnsStats& stats = sra.lastSearch().stats;
  const double iterations = static_cast<double>(stats.iterations);
  m["lns.search_s"] = std::chrono::duration<double>(searchEnd - searchStart).count();
  m["lns.iters_per_s"] = stats.seconds > 0.0 ? iterations / stats.seconds : 0.0;
  m["lns.accept_ratio"] =
      iterations > 0.0 ? static_cast<double>(stats.accepted) / iterations : 0.0;
  m["lns.repair_fail_ratio"] =
      iterations > 0.0 ? static_cast<double>(stats.repairFailures) / iterations : 0.0;
  m["core.rebalance_s"] = std::chrono::duration<double>(rebalanceEnd - rebalanceStart).count();
  m["cluster.schedule_s"] = std::chrono::duration<double>(scheduleEnd - scheduleStart).count();
  m["cluster.phases"] = static_cast<double>(schedule.phaseCount());
  m["cluster.staged_hops"] = static_cast<double>(schedule.stagedHops);
  m["cluster.t4_move_gb"] = rebalanced.schedule.totalBytes * 1e-9;
  m["model.gap"] = final.bottleneckUtilization() / bottleneckLowerBound(instance) - 1.0;
  m["model.t4_bottleneck"] = final.bottleneckUtilization();
}

}  // namespace resex::perfbench
