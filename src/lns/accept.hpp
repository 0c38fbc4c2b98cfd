// LNS acceptance: simulated annealing decides whether to keep a repaired
// solution that is worse than the current one.
#pragma once

#include <cstddef>

#include "util/rng.hpp"

namespace resex {

/// Classic simulated annealing with geometric cooling, over scalarized
/// objective values (smaller is better).
class SimulatedAnnealingAcceptance {
 public:
  /// Temperature starts at `initialTemp` and multiplies by `cooling` per
  /// iteration, floored at `minTemp`.
  SimulatedAnnealingAcceptance(double initialTemp, double cooling, double minTemp = 1e-9)
      : temp_(initialTemp), cooling_(cooling), minTemp_(minTemp) {}

  /// Picks parameters so the temperature decays from `startGap` (a typical
  /// worsening step size) to ~minTemp over `horizon` iterations.
  static SimulatedAnnealingAcceptance forHorizon(double startGap, std::size_t horizon);

  bool accept(double candidate, double current, Rng& rng) const;
  /// Cools by one step; called once per iteration.
  void onIteration();
  double temperature() const noexcept { return temp_; }

 private:
  double temp_;
  double cooling_;
  double minTemp_;
};

}  // namespace resex
