#include "lns/portfolio.hpp"

#include <gtest/gtest.h>

#include "workload/synthetic.hpp"

namespace resex {
namespace {

PortfolioConfig fastPortfolio(std::size_t searches) {
  PortfolioConfig config;
  config.searches = searches;
  config.baseSeed = 31;
  config.lns.maxIterations = 800;
  config.lns.timeBudgetSeconds = 20.0;
  return config;
}

TEST(Portfolio, RunsRequestedSearches) {
  const Instance inst = tinyTestInstance(91, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(4));
  EXPECT_EQ(result.perSearchBottleneck.size(), 4u);
  EXPECT_LT(result.winner, 4u);
}

TEST(Portfolio, WinnerIsBestOfAllSearches) {
  const Instance inst = tinyTestInstance(93, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(5));
  for (const double b : result.perSearchBottleneck)
    EXPECT_LE(result.best.bestScore.bottleneckUtil, b + 1e-9);
}

TEST(Portfolio, BestIsValidSolution) {
  const Instance inst = tinyTestInstance(97, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(3));
  Assignment best(inst, result.best.bestMapping);
  EXPECT_TRUE(best.validate(/*requireCapacity=*/true).empty());
  EXPECT_GE(best.vacantCount(), inst.exchangeCount());
}

TEST(Portfolio, DeterministicForSeedSet) {
  const Instance inst = tinyTestInstance(101, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult a = solvePortfolio(inst, obj, fastPortfolio(3));
  const PortfolioResult b = solvePortfolio(inst, obj, fastPortfolio(3));
  EXPECT_EQ(a.best.bestMapping, b.best.bestMapping);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(Portfolio, ZeroSearchesMeansHardwareCount) {
  const Instance inst = tinyTestInstance(103, 5, 30, 1, 0.6);
  const Objective obj(inst.exchangeCount());
  PortfolioConfig config = fastPortfolio(0);
  config.lns.maxIterations = 100;
  const PortfolioResult result = solvePortfolio(inst, obj, config);
  EXPECT_GE(result.perSearchBottleneck.size(), 1u);
}

TEST(Portfolio, MultiStartAtLeastAsGoodAsSingle) {
  const Instance inst = tinyTestInstance(107, 8, 96, 2, 0.75);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult multi = solvePortfolio(inst, obj, fastPortfolio(6));
  PortfolioConfig single = fastPortfolio(1);
  const PortfolioResult one = solvePortfolio(inst, obj, single);
  // Seed 1 of the portfolio equals the single run, so multi can only match
  // or beat it.
  EXPECT_LE(multi.best.bestScore.bottleneckUtil,
            one.best.bestScore.bottleneckUtil + 1e-9);
}

}  // namespace
}  // namespace resex
