// MigrationScheduler: turns a target assignment into an executable,
// transient-feasible sequence of concurrent move phases.
//
// Phase semantics (matches verifySchedule):
//   * copy window  — every source still serves its shard (full demand)
//                    while every target holds gamma (*) demand extra;
//   * switch-over  — all moves commit atomically at phase end.
//
// When no pending move fits anywhere (a transient deadlock — the situation
// the paper's exchange machines exist to break), the scheduler stages the
// blocked shard through an intermediate machine with headroom, preferring
// vacant (exchange) machines. Each staging hop pays the shard's move bytes
// again.
#pragma once

#include "cluster/migration.hpp"

namespace resex {

struct SchedulerOptions {
  /// Allow routing blocked moves through an intermediate machine and
  /// evicting blocking shards out of full targets.
  bool allowStaging = true;
  /// Max staging/eviction hops any single shard may take (prevents the
  /// same shard bouncing between intermediates).
  std::size_t maxHopsPerShard = 3;
  /// Upper bound on total extra hops, as a multiple of the initial move
  /// count (plus a small constant); the global thrash guard.
  double maxStagingFactor = 2.0;
};

class MigrationScheduler {
 public:
  explicit MigrationScheduler(SchedulerOptions options = {}) : options_(options) {}

  /// Builds a schedule realizing target from start. Both mappings must be
  /// fully assigned and capacity-feasible. If some relocations cannot be
  /// scheduled even with staging, the schedule is marked incomplete and
  /// lists them; all executed phases remain valid.
  Schedule build(const Instance& instance, const std::vector<MachineId>& start,
                 const std::vector<MachineId>& target) const;

 private:
  SchedulerOptions options_;
};

}  // namespace resex
