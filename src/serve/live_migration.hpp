// LiveCluster: the physical cluster a live migration drill runs against.
//
// Materializes one directory per machine under a root, with every physical
// shard's segment file (`shard-NNNN.seg`) resident in its mapped machine's
// directory, and implements MigrationDataPlane on top of that layout so
// MigrationExecutor can move *real files* while an attached QueryBroker
// keeps serving:
//
//   admitCopy   dual-residency admission against per-machine byte budgets
//               (source copy + destination copy both count while a move is
//               in its copy window — the paper's transient γ as actual
//               disk/RAM pressure);
//   copyShard   SegmentMover: bandwidth-throttled chunked copy (the
//               FaultInjector's per-machine multipliers degrade the
//               effective rate), temp-file write + fsync + rename publish,
//               full validation + warm, then a content check against
//               the serving index (the footers must agree), before the
//               copy is eligible to serve;
//   commitMove  atomic cutover through QueryBroker::applyShardMove, then
//               drain-by-refcount (in-flight queries on the source finish
//               before it is touched), page-cache drop, source unlink;
//   crash/GC    a crashed machine's directory freezes as-is (orphaned
//               temps, lost copies); recoverMachine() collects the debris
//               and reconciles the directory with the mapping.
//
// audit() is the drill's truth check: every segment file in every
// directory must validate, no temp files may survive recovery, and the
// file layout must equal the mapping — the "no torn segments, no orphans,
// mapping is a real cluster state" invariants the fault sweep asserts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/instance.hpp"
#include "control/data_plane.hpp"
#include "control/faults.hpp"
#include "index/partition.hpp"
#include "index/segment.hpp"
#include "serve/broker.hpp"

namespace resex::serve {

struct LiveClusterConfig {
  /// Root directory; per-machine dirs (`machine-NN/`) are created inside.
  std::string rootDir;
  /// Copy bandwidth in bytes/second before fault multipliers (<= 0 copies
  /// unthrottled).
  double migrationBandwidth = 0.0;
  std::size_t copyChunkBytes = 256 * 1024;
  /// Per-machine byte budget for resident segment data (steady copies plus
  /// in-flight dual residency), the same for every machine. <= 0 =
  /// unlimited.
  double dataBudgetBytes = 0.0;
  /// How long commitMove waits for in-flight queries on the source replica
  /// to release their references before dropping it anyway.
  double drainTimeoutSeconds = 5.0;
};

class LiveCluster : public MigrationDataPlane {
 public:
  /// Builds the on-disk layout: writes each physical shard's partition
  /// segment into its mapped machine's directory and opens every file as a
  /// validated, serving-ready index. `faults`, when non-null, supplies the
  /// per-machine bandwidth multipliers (the same injector the executor
  /// draws from). Throws on I/O errors or budget violations of the initial
  /// layout itself.
  LiveCluster(const Instance& instance, const PartitionedIndex& index,
              std::vector<MachineId> mapping, LiveClusterConfig config,
              const FaultInjector* faults = nullptr);

  /// Per-physical-shard serving indexes (segment-backed) — pass to
  /// QueryBroker's live-mode constructor.
  std::vector<std::shared_ptr<const InvertedIndex>> shardIndexes() const;

  /// Connects the broker whose routing commitMove cuts over. Null detaches
  /// (moves then only update the plane's own table).
  void attachBroker(QueryBroker* broker) { broker_ = broker; }

  // -- MigrationDataPlane -------------------------------------------------
  bool admitCopy(ShardId shard, MachineId from, MachineId to) override;
  bool copyShard(ShardId shard, MachineId from, MachineId to,
                 const CopyFault& fault) override;
  void discardCopy(ShardId shard, MachineId to, bool destinationCrashed) override;
  void commitMove(ShardId shard, MachineId from, MachineId to) override;
  void machineCrashed(MachineId machine) override;
  void recoverMachine(MachineId machine) override;

  // -- Introspection / audit ----------------------------------------------
  std::string machineDir(MachineId machine) const;
  std::string segmentPath(ShardId shard, MachineId machine) const;
  static std::string shardFileName(ShardId shard);
  /// Bytes of published segment files resident on `machine` (temps and a
  /// crashed machine's frozen debris excluded until recovery).
  double residentBytes(MachineId machine) const;
  /// The plane's view of shard placement (kept in lockstep with the broker
  /// through commitMove).
  std::vector<MachineId> mapping() const;

  struct AuditReport {
    std::size_t segmentFiles = 0;
    std::size_t tornSegments = 0;     ///< files MappedSegment rejected
    std::size_t orphanTempFiles = 0;  ///< temp-convention files anywhere
    std::size_t straySegments = 0;    ///< files the mapping does not place there
    std::size_t missingSegments = 0;  ///< mapped shards with no file
    std::vector<std::string> problems;

    bool clean() const noexcept {
      return tornSegments == 0 && orphanTempFiles == 0 && straySegments == 0 &&
             missingSegments == 0;
    }
  };
  /// Full filesystem-vs-mapping reconciliation; call with no migration in
  /// flight. Re-validates every segment file byte-for-byte.
  AuditReport audit() const;

  /// Committed cutovers so far; safe to read while a migration runs.
  std::uint64_t cutovers() const noexcept { return cutovers_.load(); }

 private:
  struct PendingCopy {
    std::shared_ptr<const InvertedIndex> index;
    std::string path;
    std::uint64_t bytes = 0;
    MachineId to = kNoMachine;
  };

  double effectiveBandwidth(MachineId from, MachineId to) const;

  LiveClusterConfig config_;
  const FaultInjector* faults_ = nullptr;
  QueryBroker* broker_ = nullptr;
  std::size_t machineCount_ = 0;

  mutable std::mutex mutex_;
  std::vector<MachineId> mapping_;
  /// Current serving index per physical shard (the broker holds its own
  /// copies; this table is the plane's reference for drains and rebuilds).
  std::vector<std::shared_ptr<const InvertedIndex>> table_;
  /// residentBytes_[m][shard] = published file bytes on machine m.
  std::vector<std::map<ShardId, std::uint64_t>> residentBytes_;
  std::vector<char> down_;
  std::map<ShardId, PendingCopy> pending_;
  std::atomic<std::uint64_t> cutovers_{0};
};

}  // namespace resex::serve
