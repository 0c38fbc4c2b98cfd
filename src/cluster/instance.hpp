// Instance: the complete statement of one RESEX problem.
//
// Machines, shards with demands and migration sizes, the initial
// placement, the transient fractions gamma, and the compensation
// requirement: k machines vacant at the end besides the crashed ones,
// whichever machines those are. Instances serialize to/from a
// line-oriented text format so that experiments can be archived and
// replayed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cluster/resource.hpp"
#include "cluster/types.hpp"

namespace resex {

/// Capacity, in every dimension, of a crashed machine: effectively zero,
/// but positive so that utilizations stay finite.
inline constexpr double kCrashedCapacity = 1e-6;

/// A physical machine.
struct Machine {
  MachineId id = 0;
  ResourceVector capacity;
  /// A dead machine. The Instance collapses its capacity to
  /// kCrashedCapacity, so every feasible end state evacuates it, and it
  /// adds one required vacancy (Instance::vacancyTarget) so that the corpse
  /// never counts as a returned machine.
  bool crashed = false;
  /// SKU label (generators produce a small number of machine classes).
  std::uint32_t sku = 0;
};

/// An index shard: the unit of placement and migration.
struct Shard {
  ShardId id = 0;
  /// Steady-state resource demand while serving on a machine.
  ResourceVector demand;
  /// Bytes transferred to migrate this shard once (doubled by two-hop).
  double moveBytes = 0.0;
};

class Instance {
 public:
  Instance() = default;

  /// Constructs and validates; throws std::invalid_argument on a malformed
  /// instance (dimension mismatches, shard ids out of order, ...).
  Instance(std::size_t dims, std::vector<Machine> machines, std::vector<Shard> shards,
           std::vector<MachineId> initialAssignment, std::size_t exchangeCount,
           ResourceVector transientGamma);

  /// Like the main constructor, plus replica groups: shards sharing a
  /// group id are replicas of one logical shard and must live on distinct
  /// machines (anti-affinity). `replicaGroup` must have one entry per
  /// shard; the initial assignment must already satisfy anti-affinity.
  Instance(std::size_t dims, std::vector<Machine> machines, std::vector<Shard> shards,
           std::vector<MachineId> initialAssignment, std::size_t exchangeCount,
           ResourceVector transientGamma, std::vector<std::uint32_t> replicaGroup);

  std::size_t dims() const noexcept { return dims_; }
  std::size_t machineCount() const noexcept { return machines_.size(); }
  std::size_t shardCount() const noexcept { return shards_.size(); }
  /// k: machines that must be vacant at the end besides the crashed ones.
  /// Any machines may be the vacant ones, not only the borrowed tail.
  std::size_t exchangeCount() const noexcept { return exchangeCount_; }
  /// Machines before the last k ids. Generators place shards only on these
  /// and borrow the last k vacant; baselines and loadFactor() use the split.
  std::size_t regularCount() const noexcept { return machines_.size() - exchangeCount_; }
  /// Vacant machines an end state needs: k plus one per crashed machine.
  std::size_t vacancyTarget() const noexcept { return exchangeCount_ + crashedCount_; }

  const Machine& machine(MachineId id) const { return machines_.at(id); }
  const Shard& shard(ShardId id) const { return shards_.at(id); }
  const std::vector<Machine>& machines() const noexcept { return machines_; }
  const std::vector<Shard>& shards() const noexcept { return shards_; }

  /// Initial machine of each shard (any machine, the last k ids included).
  const std::vector<MachineId>& initialAssignment() const noexcept { return initial_; }
  MachineId initialMachineOf(ShardId s) const { return initial_.at(s); }

  /// Per-dimension transient fraction gamma in [0,1]: during a copy the
  /// target additionally holds gamma (*) demand.
  const ResourceVector& transientGamma() const noexcept { return gamma_; }

  // -- Replication ---------------------------------------------------------

  /// True when any replica group has more than one member.
  bool hasReplication() const noexcept { return replicated_; }
  /// Replica group of a shard (== the shard id itself when unreplicated).
  std::uint32_t replicaGroupOf(ShardId s) const { return replicaGroup_.at(s); }
  /// All shards in a replica group (singleton when unreplicated). The
  /// span stays valid for the Instance's lifetime.
  std::span<const ShardId> replicasInGroup(std::uint32_t group) const;
  /// Other members of a shard's group — the anti-affinity peers.
  /// Convenience over replicasInGroup (still includes `s` itself; callers
  /// skip it).
  std::span<const ShardId> replicaPeers(ShardId s) const {
    return replicasInGroup(replicaGroup_.at(s));
  }
  std::size_t replicaGroupCount() const noexcept { return groupMembers_.size(); }

  /// Total shard demand divided by total regular capacity, per the worst
  /// dimension — the "load factor" of the instance.
  double loadFactor() const noexcept;

  /// Sum of all shard demands.
  ResourceVector totalDemand() const noexcept;

  /// Sum of the first regularCount() machines' capacities.
  ResourceVector totalRegularCapacity() const noexcept;

  // -- Derived instances (machine ids, k, gamma and replica groups kept) ----

  /// A copy with one demand per shard and `placement` as the initial
  /// assignment (an epoch's traffic over where the cluster stands).
  Instance withDemands(std::span<const ResourceVector> demands,
                       std::vector<MachineId> placement) const;
  /// A copy with every machine in `crashed` marked crashed (a no-op for one
  /// already crashed) and `placement` as the initial assignment: the
  /// instance a recovery or a mid-flight replan solves.
  Instance afterCrash(std::span<const MachineId> crashed,
                      std::vector<MachineId> placement) const;

  /// Serialization: a stable, line-oriented text format (see instance.cpp).
  std::string serialize() const;
  static Instance deserialize(const std::string& text);
  void saveToFile(const std::string& path) const;
  static Instance loadFromFile(const std::string& path);

 private:
  void validate() const;
  void buildReplicaIndex();

  std::size_t dims_ = 0;
  std::vector<Machine> machines_;
  std::vector<Shard> shards_;
  std::vector<MachineId> initial_;
  std::size_t exchangeCount_ = 0;
  std::size_t crashedCount_ = 0;
  ResourceVector gamma_;
  std::vector<std::uint32_t> replicaGroup_;
  /// groupMembers_[g] = shard ids in group g (group ids are dense).
  std::vector<std::vector<ShardId>> groupMembers_;
  bool replicated_ = false;
};

}  // namespace resex
