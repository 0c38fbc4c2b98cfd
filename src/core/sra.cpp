#include "core/sra.hpp"

#include "core/polish.hpp"
#include "lns/portfolio.hpp"
#include "obs/context.hpp"
#include "util/timer.hpp"

namespace resex {

RebalanceResult Sra::rebalance(const Instance& instance) {
  RESEX_TRACE_SPAN("sra.rebalance");
  WallTimer timer;
  const Objective objective =
      Objective::forInstance(instance, config_.spreadWeight, config_.bytesWeight);

  std::vector<MachineId> target;
  if (config_.portfolioSearches > 1) {
    PortfolioConfig portfolio;
    portfolio.searches = config_.portfolioSearches;
    portfolio.baseSeed = config_.lns.seed;
    portfolio.lns = config_.lns;
    PortfolioResult res = solvePortfolio(instance, objective, portfolio);
    lastSearch_ = std::move(res.best);
  } else {
    LnsSolver solver(instance, objective, config_.lns);
    lastSearch_ = solver.solve();
  }

  if (lastSearch_.bestScore.vacancyDeficit == 0) {
    // Steepest-descent polish (locally optimal end state), then return-home
    // pruning (drop migration bytes the final balance never needed).
    Assignment best(instance, lastSearch_.bestMapping);
    if (config_.polish) {
      RESEX_TRACE_SPAN("sra.polish");
      polishAssignment(best, objective, /*maxSteps=*/10000, config_.polishSeconds);
      pruneRedundantMoves(best, objective, best.bottleneckUtilization());
    }
    target = best.mapping();
  } else {
    // Could not end with k vacant machines: returning the borrowed
    // machines would strand shards, so do nothing.
    target = instance.initialAssignment();
  }

  return finalizeResult(instance, std::string(name()), std::move(target),
                        config_.scheduler, timer.seconds());
}

}  // namespace resex
