// Parallel multi-start portfolio: independent seeded LNS searches, each on
// its own dedicated thread; the best result wins. Deterministic for a fixed
// seed set and search count (searches never communicate mid-run, and the
// winner is picked by a fixed scan order with a lowest-index tie-break).
//
// Threading model: one std::thread per search, joined before the winner is
// picked. A search is single-threaded, only reads the instance and the
// objective, and counts into the thread-safe metrics registry, so the
// searches need no pool and no locking.
#pragma once

#include "lns/lns.hpp"

namespace resex {

struct PortfolioConfig {
  /// Number of independent searches (0 = one per hardware thread).
  std::size_t searches = 0;
  /// Base seed; search i runs with the i-th draw of a splitmix64 stream
  /// seeded with baseSeed (decorrelated, reproducible).
  std::uint64_t baseSeed = 1;
  /// Per-search LNS configuration (seed field is overridden).
  LnsConfig lns;
};

struct PortfolioResult {
  LnsResult best;
  /// Index of the winning search.
  std::size_t winner = 0;
  /// Final best bottleneck of every search (spread shows seed sensitivity).
  std::vector<double> perSearchBottleneck;
  double seconds = 0.0;
};

/// Runs the portfolio from the instance's initial placement.
PortfolioResult solvePortfolio(const Instance& instance, const Objective& objective,
                               const PortfolioConfig& config);

}  // namespace resex
