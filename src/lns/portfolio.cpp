#include "lns/portfolio.hpp"

#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace resex {

PortfolioResult solvePortfolio(const Instance& instance, const Objective& objective,
                               const PortfolioConfig& config) {
  const std::size_t searches =
      config.searches == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config.searches;

  // Decorrelated per-search seeds: sequential draws of one splitmix64
  // stream (the generator splitmix64 was designed for), not arithmetic on
  // the base seed.
  std::vector<std::uint64_t> seeds(searches);
  std::uint64_t state = config.baseSeed;
  for (std::size_t i = 0; i < searches; ++i) seeds[i] = splitmix64(state);

  WallTimer timer;
  std::vector<LnsResult> results(searches);
  std::vector<std::exception_ptr> errors(searches);
  {
    std::vector<std::thread> threads;
    threads.reserve(searches);
    for (std::size_t i = 0; i < searches; ++i) {
      threads.emplace_back([&, i] {
        try {
          LnsConfig lnsConfig = config.lns;
          lnsConfig.seed = seeds[i];
          results[i] = LnsSolver(instance, objective, lnsConfig).solve();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Deterministic winner: fixed scan order, strict betterThan, so ties go
  // to the lowest search index regardless of thread finish order.
  PortfolioResult result;
  result.perSearchBottleneck.reserve(searches);
  bool first = true;
  for (std::size_t i = 0; i < searches; ++i) {
    result.perSearchBottleneck.push_back(results[i].bestScore.bottleneckUtil);
    if (first || results[i].bestScore.betterThan(result.best.bestScore)) {
      result.best = std::move(results[i]);
      result.winner = i;
      first = false;
    }
  }
  result.seconds = timer.seconds();

  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("portfolio.searches").set(static_cast<double>(searches));
  registry.gauge("portfolio.seconds").set(result.seconds);
  registry.gauge("portfolio.best_bottleneck")
      .set(result.best.bestScore.bottleneckUtil);
  return result;
}

}  // namespace resex
