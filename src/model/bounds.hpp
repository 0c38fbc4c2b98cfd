// Lower bounds on the achievable bottleneck utilization Lambda.
//
// Used to (a) prune the exact branch-and-bound, (b) terminate LNS early
// when it provably cannot improve, and (c) report optimality gaps when the
// exact solver is out of reach.
#pragma once

#include "cluster/instance.hpp"

namespace resex {

/// Volume bound with compensation: any solution leaves >= v =
/// vacancyTarget() machines vacant, so per dimension r,
///   Lambda >= totalDemand_r / (totalCapacity_r - cheapestRemovable_r)
/// where cheapestRemovable_r is the sum of the v smallest capacities in
/// dimension r (an optimistic, hence valid, choice of vacated machines).
double volumeLowerBound(const Instance& instance);

/// Indivisibility bound: the largest shard must live somewhere, so
///   Lambda >= min over machines of (that shard alone's utilization),
/// maximized over shards.
double largestShardLowerBound(const Instance& instance);

/// max of all bounds above.
double bottleneckLowerBound(const Instance& instance);

}  // namespace resex
