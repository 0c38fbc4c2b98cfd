// Load-balance metrics over an Assignment.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/assignment.hpp"

namespace resex {

/// Snapshot of balance-related metrics for one assignment state.
struct BalanceMetrics {
  /// max over machines of (max over dims load/capacity) — the objective's
  /// primary term.
  double bottleneckUtil = 0.0;
  /// Mean per-machine utilization.
  double meanUtil = 0.0;
  /// Coefficient of variation of per-machine utilization.
  double utilCv = 0.0;
  /// Jain fairness index of per-machine utilization.
  double jain = 0.0;
  /// Per-dimension worst machine utilization.
  std::vector<double> perDimBottleneck;
  /// Machines holding zero shards.
  std::size_t vacantMachines = 0;
  /// Shards displaced from the instance's initial placement.
  std::size_t movedShards = 0;
  /// Bytes implied by displaced shards (before staging overhead).
  double migratedBytes = 0.0;
  /// True when every machine fits within capacity.
  bool feasible = true;

  std::string summary() const;
};

/// Computes the metric snapshot. Mean, CV and Jain leave out crashed
/// machines and up to k vacant machines (the ones owed back as
/// compensation, whichever they are); the bottleneck covers all machines.
BalanceMetrics measureBalance(const Assignment& assignment);

}  // namespace resex
