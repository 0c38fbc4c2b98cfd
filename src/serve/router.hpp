// Replica routing for the query broker.
//
// A replicated shard can be served by any machine hosting one of its
// replicas; the router picks which, using *live* queue depths as the load
// signal: the less-backlogged of two *distinct* random replicas
// (power-of-two-choices, Mitzenmacher). It is near-optimal with a stale
// signal and reads O(1) depths per decision.
//
// The choice function is pure over a depth span, so it is unit testable
// without threads; the broker supplies depths read from its per-machine
// queues.
#pragma once

#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace resex::serve {

/// Picks the index of the replica to serve a query, given the current
/// queue depth of each candidate's machine. `depths` must be non-empty;
/// ties break toward the lower index (deterministic for tests).
std::size_t chooseReplica(std::span<const std::size_t> depths, Rng& rng);

}  // namespace resex::serve
