// Shared helpers for building small deterministic instances in tests.
#pragma once

#include <vector>

#include "cluster/instance.hpp"

namespace resex::testing {

/// `regular` machines with capacity (cap, cap), `exchange` vacant exchange
/// machines of the same size, one shard per entry of `shardSizes` with
/// demand (size, size), placed round-robin over the regular machines.
/// moveBytes == demand size; gamma defaults to full duplication.
inline Instance uniformInstance(std::size_t regular, std::size_t exchange,
                                const std::vector<double>& shardSizes,
                                double cap = 100.0,
                                ResourceVector gamma = ResourceVector{1.0, 1.0}) {
  std::vector<Machine> machines(regular + exchange);
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector{cap, cap};
  }
  std::vector<Shard> shards(shardSizes.size());
  std::vector<MachineId> initial(shardSizes.size());
  for (std::size_t s = 0; s < shardSizes.size(); ++s) {
    shards[s].id = static_cast<ShardId>(s);
    shards[s].demand = ResourceVector{shardSizes[s], shardSizes[s]};
    shards[s].moveBytes = shardSizes[s];
    initial[s] = static_cast<MachineId>(s % regular);
  }
  return Instance(2, std::move(machines), std::move(shards), std::move(initial), exchange,
                  std::move(gamma));
}

/// Like uniformInstance but with an explicit initial placement.
inline Instance placedInstance(std::size_t regular, std::size_t exchange,
                               const std::vector<double>& shardSizes,
                               const std::vector<MachineId>& placement,
                               double cap = 100.0,
                               ResourceVector gamma = ResourceVector{1.0, 1.0}) {
  std::vector<Machine> machines(regular + exchange);
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector{cap, cap};
  }
  std::vector<Shard> shards(shardSizes.size());
  for (std::size_t s = 0; s < shardSizes.size(); ++s) {
    shards[s].id = static_cast<ShardId>(s);
    shards[s].demand = ResourceVector{shardSizes[s], shardSizes[s]};
    shards[s].moveBytes = shardSizes[s];
  }
  return Instance(2, std::move(machines), std::move(shards), placement, exchange,
                  std::move(gamma));
}

}  // namespace resex::testing
