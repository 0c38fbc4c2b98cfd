// Assignment: mutable shard->machine mapping with incrementally maintained
// per-machine loads, utilizations, vacancy count, and migration distance
// from the instance's initial placement.
//
// This is the state the LNS inner loop mutates millions of times; every
// mutation is O(d) plus an O(1) list update.
#pragma once

#include <span>
#include <vector>

#include "cluster/instance.hpp"

namespace resex {

class Assignment {
 public:
  /// Starts at the instance's initial placement.
  explicit Assignment(const Instance& instance);

  /// Starts from an explicit mapping; entries may be kNoMachine.
  Assignment(const Instance& instance, std::vector<MachineId> mapping);

  const Instance& instance() const noexcept { return *instance_; }

  // -- Queries ------------------------------------------------------------

  MachineId machineOf(ShardId s) const { return shardTo_.at(s); }
  bool isAssigned(ShardId s) const { return shardTo_.at(s) != kNoMachine; }
  std::size_t unassignedCount() const noexcept { return unassigned_; }

  const ResourceVector& loadOf(MachineId m) const { return loads_.at(m); }
  /// Cached bottleneck utilization of one machine (max over dimensions).
  double utilizationOf(MachineId m) const { return utils_.at(m); }
  /// Shards currently resident on a machine (unordered).
  std::span<const ShardId> shardsOn(MachineId m) const {
    return machineShards_.at(m);
  }
  std::size_t shardCountOn(MachineId m) const { return machineShards_.at(m).size(); }
  bool isVacant(MachineId m) const { return machineShards_.at(m).empty(); }
  /// Number of machines (regular + exchange) currently holding no shard.
  std::size_t vacantCount() const noexcept { return vacantCount_; }

  /// Cluster bottleneck: max over machines of utilizationOf. O(1) — read
  /// off the root of the incrementally maintained max-tournament tree.
  double bottleneckUtilization() const noexcept;
  /// The machine achieving the bottleneck (ties: lowest id). O(1).
  MachineId bottleneckMachine() const noexcept;
  /// Incrementally maintained sum over machines of utilization^2 —
  /// the balance tie-breaker of the objective.
  double sumSquaredUtil() const noexcept { return sumSqUtil_; }

  /// Total bytes of shards whose current machine differs from the initial
  /// placement (a lower bound on schedule cost; staging may add more).
  double migratedBytes() const noexcept { return migratedBytes_; }
  /// Number of shards displaced from their initial machine.
  std::size_t movedShardCount() const noexcept { return movedShards_; }

  // -- Feasibility predicates ----------------------------------------------

  /// True when another replica of `s`'s group currently resides on `m`
  /// (placing `s` there would violate anti-affinity). O(replication).
  bool hasReplicaOn(ShardId s, MachineId m) const;
  /// End-state feasibility: capacity and replica anti-affinity.
  bool canPlace(ShardId s, MachineId m) const;
  /// Copy-time check used by direct (unstaged) moves: target must hold its
  /// current load plus gamma (*) demand during the copy, and the end state
  /// must also fit. Source feasibility is implied (it only sheds load).
  bool canPlaceTransient(ShardId s, MachineId m) const;

  // -- Mutations (all O(d)) -------------------------------------------------

  /// Assigns an unassigned shard to a machine. No capacity check — callers
  /// decide policy; validate() reports overloads.
  void assign(ShardId s, MachineId m);
  /// Removes a shard from its machine, leaving it unassigned.
  /// Returns the machine it was on.
  MachineId remove(ShardId s);
  /// remove+assign in one call; shard must currently be assigned.
  void moveShard(ShardId s, MachineId to);

  /// Rebuilds all caches from the mapping (guards against float drift in
  /// long searches; also used by tests to cross-check increments).
  void recomputeCaches();

  /// Full self-check: mapping/list/load/cache consistency and (optionally)
  /// capacity feasibility. Returns a list of human-readable problems.
  std::vector<std::string> validate(bool requireCapacity = true) const;

  /// The raw mapping (for diffing/serializing solutions).
  const std::vector<MachineId>& mapping() const noexcept { return shardTo_; }

  bool operator==(const Assignment& rhs) const noexcept {
    return shardTo_ == rhs.shardTo_;
  }

 public:
  /// Stateless anti-affinity check against an arbitrary mapping (used by
  /// the scheduler, which tracks in-flight positions outside Assignment).
  static bool replicaConflict(const Instance& instance,
                              const std::vector<MachineId>& mapping, ShardId s,
                              MachineId m);

 private:
  void attach(ShardId s, MachineId m);
  void detach(ShardId s, MachineId m);
  void refreshUtil(MachineId m);
  void rebuildMaxTree();
  void updateMaxTree(MachineId m, double util) noexcept;

  /// One node of the bottleneck max-tournament tree: the winning machine of
  /// the subtree and its utilization. Ties resolve to the lower machine id.
  struct MaxNode {
    double util = -1.0;
    MachineId arg = 0;
  };

  const Instance* instance_;
  std::vector<MachineId> shardTo_;
  std::vector<ResourceVector> loads_;
  std::vector<double> utils_;
  /// 1-based flat tournament tree over utils_: leaves at [leafBase_,
  /// leafBase_ + machineCount), padding leaves hold util = -1 so they never
  /// win. Updated in O(log m) by refreshUtil; the root is the bottleneck.
  std::vector<MaxNode> maxTree_;
  std::size_t leafBase_ = 1;
  std::vector<std::vector<ShardId>> machineShards_;
  /// Position of each shard within machineShards_[machineOf(shard)].
  std::vector<std::size_t> positions_;
  std::size_t vacantCount_ = 0;
  std::size_t unassigned_ = 0;
  double sumSqUtil_ = 0.0;
  double migratedBytes_ = 0.0;
  std::size_t movedShards_ = 0;
};

}  // namespace resex
