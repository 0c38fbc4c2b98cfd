// The LNS solver loop: destroy / repair / accept with adaptive operator
// selection, rollback-safe iterations, and best-solution tracking.
#pragma once

#include <memory>

#include "cluster/assignment.hpp"
#include "core/objective.hpp"
#include "lns/adaptive.hpp"
#include "lns/operators.hpp"
#include "util/timer.hpp"

namespace resex {

struct LnsConfig {
  std::uint64_t seed = 1;
  std::size_t maxIterations = 20000;
  double timeBudgetSeconds = 30.0;
  /// Adaptive operator weights (false = uniform selection; ablation knob).
  bool adaptiveWeights = true;
  /// Record (iteration, best scalar) whenever the best improves, for
  /// convergence plots.
  bool recordTrajectory = false;
  /// Stop early when the best bottleneck reaches this value (e.g. a lower
  /// bound); <= 0 disables.
  double targetBottleneck = 0.0;
};

struct TrajectoryPoint {
  std::size_t iteration = 0;
  double seconds = 0.0;
  double bestScalar = 0.0;
  double bestBottleneck = 0.0;
};

struct LnsStats {
  std::size_t iterations = 0;
  std::size_t accepted = 0;
  std::size_t improvedBest = 0;
  std::size_t repairFailures = 0;
  double seconds = 0.0;
  std::vector<TrajectoryPoint> trajectory;
  /// Per destroy-operator pick counts (index-aligned with the solver's
  /// operator registry), for the ablation report.
  std::vector<std::size_t> destroyUses;
  std::vector<std::size_t> repairUses;
};

struct LnsResult {
  std::vector<MachineId> bestMapping;
  Score bestScore;
  LnsStats stats;
};

class LnsSolver {
 public:
  LnsSolver(const Instance& instance, Objective objective, LnsConfig config);

  /// Registers an operator (takes ownership). If none are registered before
  /// solve(), the default portfolio is installed: random / worst-machine /
  /// shaw / vacancy-drain destroys and greedy(+noise) / regret-2 repairs.
  void addDestroy(std::unique_ptr<DestroyOperator> op);
  void addRepair(std::unique_ptr<RepairOperator> op);

  /// Runs the search from `start` (typically the instance's initial
  /// placement). The start may violate capacity or vacancy; the search
  /// only accepts capacity-feasible repairs, so the best solution is
  /// capacity-feasible whenever any iteration succeeds.
  LnsResult solve(const Assignment& start);

  /// Convenience: solve from the instance's initial placement.
  LnsResult solve() { return solve(Assignment(*instance_)); }

 private:
  void installDefaults();

  const Instance* instance_;
  Objective objective_;
  LnsConfig config_;
  std::vector<std::unique_ptr<DestroyOperator>> destroys_;
  std::vector<std::unique_ptr<RepairOperator>> repairs_;
};

}  // namespace resex
