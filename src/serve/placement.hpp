// Placement: one immutable snapshot of where each physical shard is served
// and from which index — the mapping, the hosting replicas of each logical
// partition (what TokenBank::acquire binds tasks to) and the serving index
// of each physical shard. A move builds the next snapshot (withMove), so a
// reader holding one sees a mapping, hosts and indexes that agree.
// LiveCluster owns the current snapshot and publishes each next one to its
// QueryBroker, which routes every query on the snapshot it loaded.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/instance.hpp"
#include "index/inverted_index.hpp"
#include "serve/tenant.hpp"

namespace resex::serve {

class Placement {
 public:
  /// Physical shard s of replica group g is a copy of partition g, served
  /// on mapping[s] from indexes[s]. Throws std::invalid_argument unless
  /// each physical shard of `instance` has a machine in range and a
  /// non-null index, and every replica group has a host.
  Placement(const Instance& instance, std::vector<MachineId> mapping,
            std::vector<std::shared_ptr<const InvertedIndex>> indexes);

  /// The snapshot after moving `shard` from `from` to `to`, served from
  /// `replacement` (the current index when null). Throws
  /// std::invalid_argument when the shard or `to` is out of range,
  /// mapping()[shard] != from, or both indexes are segment-backed and their
  /// footers disagree (sameSegmentContent): a move changes where a shard is
  /// served, never what it holds, which keeps cached results valid.
  std::shared_ptr<const Placement> withMove(
      ShardId shard, MachineId from, MachineId to,
      std::shared_ptr<const InvertedIndex> replacement = nullptr) const;

  std::size_t machineCount() const noexcept { return machineCount_; }
  std::size_t shardCount() const noexcept { return mapping_.size(); }
  std::size_t partitionCount() const noexcept { return hosts_.size(); }
  const std::vector<MachineId>& mapping() const noexcept { return mapping_; }
  /// hosts()[g] = (machine, physical shard) per replica of partition g.
  const std::vector<std::vector<ReplicaHost>>& hosts() const noexcept { return hosts_; }
  const std::vector<std::shared_ptr<const InvertedIndex>>& indexes() const noexcept {
    return indexes_;
  }
  const std::shared_ptr<const InvertedIndex>& index(ShardId shard) const noexcept {
    return indexes_[shard];
  }

 private:
  std::size_t machineCount_ = 0;
  std::vector<MachineId> mapping_;
  std::vector<std::vector<ReplicaHost>> hosts_;
  std::vector<std::shared_ptr<const InvertedIndex>> indexes_;
};

}  // namespace resex::serve
