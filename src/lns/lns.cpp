#include "lns/lns.hpp"

#include <algorithm>

#include "lns/accept.hpp"
#include "lns/destroy.hpp"
#include "lns/repair.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace resex {

namespace {

// Ruin size is drawn uniformly in [kDestroyMin, kDestroyMax] each
// iteration, additionally capped at kDestroyFractionCap * shardCount.
constexpr std::size_t kDestroyMin = 4;
constexpr std::size_t kDestroyMax = 60;
constexpr double kDestroyFractionCap = 0.2;

}  // namespace

LnsSolver::LnsSolver(const Instance& instance, Objective objective, LnsConfig config)
    : instance_(&instance), objective_(objective), config_(config) {}

void LnsSolver::addDestroy(std::unique_ptr<DestroyOperator> op) {
  destroys_.push_back(std::move(op));
}

void LnsSolver::addRepair(std::unique_ptr<RepairOperator> op) {
  repairs_.push_back(std::move(op));
}

void LnsSolver::installDefaults() {
  if (destroys_.empty()) {
    addDestroy(std::make_unique<RandomDestroy>());
    addDestroy(std::make_unique<WorstMachineDestroy>());
    addDestroy(std::make_unique<ShawDestroy>());
    addDestroy(std::make_unique<VacancyDestroy>());
  }
  if (repairs_.empty()) {
    addRepair(std::make_unique<GreedyRepair>());
    addRepair(std::make_unique<GreedyRepair>(0.15));
    addRepair(std::make_unique<RegretRepair>(2));
  }
}

LnsResult LnsSolver::solve(const Assignment& start) {
  RESEX_TRACE_SPAN("lns.solve");
  installDefaults();
  Rng rng(config_.seed);
  WallTimer timer;

  // Hot-loop instruments, resolved once: counter adds inside the loop are
  // single relaxed atomics.
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& mIterations = registry.counter("lns.iterations");
  obs::Counter& mAccepted = registry.counter("lns.accepted");
  obs::Counter& mNewBest = registry.counter("lns.new_best");
  obs::Counter& mRepairFailures = registry.counter("lns.repair_failures");
  std::vector<obs::Counter*> mDestroyPicks, mRepairPicks;
  for (const auto& op : destroys_)
    mDestroyPicks.push_back(
        &registry.counter("lns.op.destroy." + std::string(op->name())));
  for (const auto& op : repairs_)
    mRepairPicks.push_back(
        &registry.counter("lns.op.repair." + std::string(op->name())));

  Assignment current = start;
  Score currentScore = objective_.evaluate(current);
  double currentScalar = objective_.scalarize(currentScore);

  LnsResult result;
  result.bestMapping = current.mapping();
  result.bestScore = currentScore;

  LnsStats& stats = result.stats;
  // Trajectory bookkeeping lives in the metrics layer: points are recorded
  // once into this Series and copied into stats.trajectory at the end.
  obs::Series trajectory;
  if (config_.recordTrajectory)
    trajectory.append(0.0, 0.0, currentScalar, currentScore.bottleneckUtil);

  AdaptiveSelector destroySel(destroys_.size(), !config_.adaptiveWeights);
  AdaptiveSelector repairSel(repairs_.size(), !config_.adaptiveWeights);

  // Annealing whose horizon matches the iteration budget and whose initial
  // temperature is a small fraction of the starting objective (so early
  // worsening moves of a few percent pass).
  SimulatedAnnealingAcceptance acceptance = SimulatedAnnealingAcceptance::forHorizon(
      0.02 * std::max(0.5, currentScalar), std::max<std::size_t>(1, config_.maxIterations));

  const std::size_t n = instance_->shardCount();
  const auto fractionCap = static_cast<std::size_t>(
      std::max(1.0, kDestroyFractionCap * static_cast<double>(n)));
  const std::size_t quotaHi = std::max(kDestroyMin, std::min(kDestroyMax, fractionCap));

  Ruin ruin;  // (shard, previous machine) pairs, reused per iteration —
              // everything rollback needs without an O(n) mapping snapshot

  for (std::size_t iter = 1; iter <= config_.maxIterations; ++iter) {
    if (timer.seconds() >= config_.timeBudgetSeconds) break;
    if (config_.targetBottleneck > 0.0 && result.bestScore.vacancyDeficit == 0 &&
        result.bestScore.bottleneckUtil <= config_.targetBottleneck + 1e-9)
      break;
    ++stats.iterations;
    mIterations.add();

    const std::size_t dOp = destroySel.select(rng);
    const std::size_t rOp = repairSel.select(rng);
    mDestroyPicks[dOp]->add();
    mRepairPicks[rOp]->add();
    const std::size_t quota = kDestroyMin + rng.below(quotaHi - kDestroyMin + 1);

    ruin.clear();
    {
      RESEX_TRACE_SPAN("lns.destroy");
      destroys_[dOp]->destroyInto(current, quota, rng, ruin);
    }

    bool repaired;
    {
      RESEX_TRACE_SPAN("lns.repair");
      repaired = !ruin.empty() &&
                 repairs_[rOp]->repair(current, ruin.shards, objective_, rng);
    }

    auto rollback = [&]() {
      for (const ShardId s : ruin.shards)
        if (current.isAssigned(s)) current.remove(s);
      for (std::size_t i = 0; i < ruin.size(); ++i)
        current.assign(ruin.shards[i], ruin.homes[i]);
    };

    if (!repaired) {
      if (!ruin.empty()) rollback();
      ++stats.repairFailures;
      mRepairFailures.add();
      destroySel.reward(dOp, OperatorOutcome::RepairFailed);
      repairSel.reward(rOp, OperatorOutcome::RepairFailed);
      acceptance.onIteration();
      continue;
    }

    const Score candidateScore = objective_.evaluate(current);
    const double candidateScalar = objective_.scalarize(candidateScore);

    OperatorOutcome outcome;
    if (candidateScore.betterThan(result.bestScore)) {
      outcome = OperatorOutcome::NewBest;
    } else if (candidateScalar < currentScalar) {
      outcome = OperatorOutcome::Improved;
    } else if (acceptance.accept(candidateScalar, currentScalar, rng)) {
      outcome = OperatorOutcome::Accepted;
    } else {
      outcome = OperatorOutcome::Rejected;
    }

    if (outcome == OperatorOutcome::Rejected) {
      rollback();
    } else {
      currentScore = candidateScore;
      currentScalar = candidateScalar;
      ++stats.accepted;
      mAccepted.add();
      if (outcome == OperatorOutcome::NewBest) {
        result.bestMapping = current.mapping();
        result.bestScore = candidateScore;
        ++stats.improvedBest;
        mNewBest.add();
        if (config_.recordTrajectory)
          trajectory.append(static_cast<double>(iter), timer.seconds(),
                            candidateScalar, candidateScore.bottleneckUtil);
      }
    }
    destroySel.reward(dOp, outcome);
    repairSel.reward(rOp, outcome);
    acceptance.onIteration();

    // Periodically rebuild caches: float accumulation over millions of
    // incremental +=/-= must never skew comparisons.
    if ((iter & 0xFFF) == 0) {
      current.recomputeCaches();
      currentScore = objective_.evaluate(current);
      currentScalar = objective_.scalarize(currentScore);
    }
  }

  stats.seconds = timer.seconds();
  stats.destroyUses.resize(destroys_.size());
  stats.repairUses.resize(repairs_.size());
  for (std::size_t i = 0; i < destroys_.size(); ++i)
    stats.destroyUses[i] = destroySel.usesOf(i);
  for (std::size_t i = 0; i < repairs_.size(); ++i)
    stats.repairUses[i] = repairSel.usesOf(i);
  if (config_.recordTrajectory) {
    for (const obs::Series::Point& p : trajectory.points())
      stats.trajectory.push_back(
          {static_cast<std::size_t>(p[0]), p[1], p[2], p[3]});
    registry.series("lns.trajectory").appendAll(trajectory);
  }
  registry.gauge("lns.best_bottleneck").set(result.bestScore.bottleneckUtil);
  registry.gauge("lns.last_solve_seconds").set(stats.seconds);
  registry.gauge("lns.iters_per_sec")
      .set(stats.seconds > 0.0 ? static_cast<double>(stats.iterations) / stats.seconds
                               : 0.0);
  RESEX_LOG_DEBUG("LNS done: iters=%zu accepted=%zu best=%s", stats.iterations,
                  stats.accepted, result.bestScore.toString().c_str());
  return result;
}

}  // namespace resex
