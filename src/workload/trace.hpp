// Multi-epoch demand traces: the stand-in for the paper's "real data from
// actual datacenters".
//
// Starting from a base instance, each shard's demand evolves across epochs
// by (a) a diurnal multiplier with per-shard phase jitter, (b) a lognormal
// random-walk drift, and (c) occasional hotspot spikes that decay over
// time. Demands are normalized so the worst epoch hits a configured peak
// load factor. The result reproduces what production rebalancers face: a
// placement that was fine an hour ago and is now imbalanced.
#pragma once

#include <vector>

#include "cluster/instance.hpp"
#include "workload/diurnal.hpp"

namespace resex {

struct TraceConfig {
  std::uint64_t seed = 1;
  std::size_t epochs = 24;
  /// Simulated hours per epoch (epoch e is at hour e * epochHours).
  double epochHours = 1.0;
  DiurnalModel diurnal;
  /// Std-dev of the per-shard diurnal phase shift in hours.
  double shardPhaseJitterHours = 3.0;
  /// Per-epoch lognormal random-walk sigma on each shard's demand.
  double driftSigma = 0.06;
  /// Per-epoch probability a shard becomes hot.
  double hotspotRate = 0.02;
  double hotspotMultiplier = 3.0;
  /// Multiplicative decay of an active hotspot per epoch (0..1).
  double hotspotDecay = 0.5;
  /// The worst epoch's (demand / regular capacity) ratio after scaling.
  double peakLoadFactor = 0.85;
};

/// A realized trace: per-epoch demand vectors for every shard of a base
/// instance, plus helpers to materialize per-epoch instances.
///
/// LIFETIME: a Trace refers to (does not own) its base Instance; the base
/// must outlive the Trace. Returning a Trace from a function that created
/// the base on its stack is a dangling reference.
class Trace {
 public:
  Trace(const Instance& base, TraceConfig config,
        std::vector<std::vector<ResourceVector>> demands);

  std::size_t epochCount() const noexcept { return demands_.size(); }
  std::size_t shardCount() const noexcept { return base_->shardCount(); }
  const Instance& base() const noexcept { return *base_; }
  const TraceConfig& config() const noexcept { return config_; }

  const ResourceVector& demand(std::size_t epoch, ShardId shard) const {
    return demands_.at(epoch).at(shard);
  }

  /// Materializes epoch `epoch`: the base instance with this epoch's
  /// demands and `currentMapping` (where the cluster actually is when the
  /// epoch begins) as the initial assignment. Machine ids and k are the
  /// base's, so a mapping a controller returns feeds straight back in,
  /// whichever k machines it left vacant. The mapping may be
  /// capacity-infeasible under the new demands; that is precisely the
  /// condition a rebalancer is invoked to fix.
  Instance instanceForEpoch(std::size_t epoch,
                            const std::vector<MachineId>& currentMapping) const;

  /// Worst-dimension load factor of one epoch.
  double epochLoadFactor(std::size_t epoch) const;

 private:
  const Instance* base_;
  TraceConfig config_;
  /// demands_[epoch][shard]
  std::vector<std::vector<ResourceVector>> demands_;
};

/// Generates a trace over the shards of `base`.
Trace generateTrace(const Instance& base, const TraceConfig& config);

}  // namespace resex
