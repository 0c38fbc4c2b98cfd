#include "lns/accept.hpp"

#include <algorithm>
#include <cmath>

namespace resex {

SimulatedAnnealingAcceptance SimulatedAnnealingAcceptance::forHorizon(
    double startGap, std::size_t horizon) {
  const double t0 = std::max(1e-6, startGap);
  const double tEnd = 1e-9;
  const double steps = std::max<std::size_t>(horizon, 1);
  const double cooling = std::pow(tEnd / t0, 1.0 / static_cast<double>(steps));
  return SimulatedAnnealingAcceptance(t0, cooling, tEnd);
}

bool SimulatedAnnealingAcceptance::accept(double candidate, double current,
                                          Rng& rng) const {
  if (candidate <= current) return true;
  const double delta = candidate - current;
  return rng.uniform() < std::exp(-delta / std::max(temp_, minTemp_));
}

void SimulatedAnnealingAcceptance::onIteration() {
  temp_ = std::max(minTemp_, temp_ * cooling_);
}

}  // namespace resex
