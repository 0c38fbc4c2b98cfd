#include "serve/live_migration.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <thread>

#include "control/segment_mover.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"

namespace resex::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Parses "shard-NNNN.seg" back to a shard id; kNoMachine-style sentinel
/// (max) when the name is not a segment file.
constexpr ShardId kNotASegment = std::numeric_limits<ShardId>::max();

ShardId parseShardFileName(const std::string& name) {
  unsigned id = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "shard-%u.se%c", &id, &tail) == 2 && tail == 'g' &&
      name == LiveCluster::shardFileName(static_cast<ShardId>(id)))
    return static_cast<ShardId>(id);
  return kNotASegment;
}

}  // namespace

std::string LiveCluster::shardFileName(ShardId shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04u.seg", shard);
  return buf;
}

LiveCluster::LiveCluster(const Instance& instance, const PartitionedIndex& index,
                         std::vector<MachineId> mapping, LiveClusterConfig config,
                         const FaultInjector* faults)
    : config_(std::move(config)), faults_(faults),
      machineCount_(instance.machineCount()) {
  const std::size_t n = instance.shardCount();
  if (mapping.size() != n)
    throw std::invalid_argument("LiveCluster: mapping size != shard count");
  if (config_.rootDir.empty())
    throw std::invalid_argument("LiveCluster: rootDir must be set");
  if (instance.replicaGroupCount() != index.shardCount())
    throw std::invalid_argument(
        "LiveCluster: replica groups must match index partitions");
  mapping_ = std::move(mapping);
  residentBytes_.resize(machineCount_);
  down_.assign(machineCount_, 0);
  table_.resize(n);

  for (MachineId m = 0; m < machineCount_; ++m)
    fs::create_directories(machineDir(m));

  // Materialize: each physical shard is a full copy of its replica group's
  // partition, written into its mapped machine's directory and reopened as
  // the validated mmap-backed index the broker will serve from.
  for (ShardId s = 0; s < n; ++s) {
    const std::uint32_t group = instance.replicaGroupOf(s);
    const std::string path = segmentPath(s, mapping_[s]);
    writeSegment(index.shard(group), path);
    auto segment = std::make_shared<const MappedSegment>(path);
    residentBytes_[mapping_[s]][s] = segment->fileBytes();
    table_[s] = std::make_shared<const InvertedIndex>(std::move(segment));
  }
  const double budget = config_.dataBudgetBytes;
  for (MachineId m = 0; m < machineCount_; ++m) {
    if (budget > 0.0 && residentBytes(m) > budget)
      throw std::invalid_argument(
          "LiveCluster: initial layout exceeds machine " + std::to_string(m) +
          "'s data budget");
  }
}

std::vector<std::shared_ptr<const InvertedIndex>> LiveCluster::shardIndexes()
    const {
  std::lock_guard lock(mutex_);
  return table_;
}

std::string LiveCluster::machineDir(MachineId machine) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/machine-%02u", machine);
  return config_.rootDir + buf;
}

std::string LiveCluster::segmentPath(ShardId shard, MachineId machine) const {
  return machineDir(machine) + "/" + shardFileName(shard);
}

double LiveCluster::residentBytes(MachineId machine) const {
  // Private callers hold mutex_ already on mutation paths; this accessor is
  // for drills between runs, when no copy is in flight.
  double total = 0.0;
  for (const auto& [shard, bytes] : residentBytes_[machine])
    total += static_cast<double>(bytes);
  return total;
}

std::vector<MachineId> LiveCluster::mapping() const {
  std::lock_guard lock(mutex_);
  return mapping_;
}

double LiveCluster::effectiveBandwidth(MachineId from, MachineId to) const {
  if (config_.migrationBandwidth <= 0.0) return 0.0;
  double mult = 1.0;
  if (faults_ != nullptr)
    mult = std::min(faults_->bandwidthMultiplier(from),
                    faults_->bandwidthMultiplier(to));
  return config_.migrationBandwidth * std::max(mult, 1e-6);
}

bool LiveCluster::admitCopy(ShardId shard, MachineId from, MachineId to) {
  std::lock_guard lock(mutex_);
  if (shard >= mapping_.size() || from >= machineCount_ || to >= machineCount_)
    return false;
  if (down_[to]) return false;  // no new copies onto a dead machine
  const auto src = residentBytes_[from].find(shard);
  if (src == residentBytes_[from].end()) return false;  // no source file
  if (pending_.count(shard)) return false;              // already in flight
  const double budget = config_.dataBudgetBytes;
  if (budget > 0.0) {
    double resident = 0.0;
    for (const auto& [s, bytes] : residentBytes_[to])
      resident += static_cast<double>(bytes);
    if (resident + static_cast<double>(src->second) > budget) {
      obs::MetricsRegistry::global().counter("migrate.data_rejected").add();
      return false;
    }
  }
  return true;
}

bool LiveCluster::copyShard(ShardId shard, MachineId from, MachineId to,
                            const CopyFault& fault) {
  std::string sourcePath;
  {
    std::lock_guard lock(mutex_);
    if (shard >= mapping_.size() || from >= machineCount_ || to >= machineCount_)
      return false;
    if (!residentBytes_[from].count(shard)) return false;
    sourcePath = segmentPath(shard, from);
  }
  SegmentMoverConfig moverConfig;
  moverConfig.bandwidthBytesPerSec = effectiveBandwidth(from, to);
  moverConfig.chunkBytes = config_.copyChunkBytes;
  const SegmentMover mover(moverConfig);
  SegmentCopyResult result =
      mover.move(sourcePath, machineDir(to), shardFileName(shard), fault);
  if (!result.success) return false;

  std::lock_guard lock(mutex_);
  // A move must not change what the shard holds (the broker's result cache
  // relies on it): the validated copy has to match the index serving the
  // shard now. A source file swapped for another valid segment fails here
  // and costs the executor one attempt.
  if (!sameSegmentContent(result.segment->footer(),
                          table_[shard]->segment()->footer())) {
    ::unlink(result.publishedPath.c_str());
    return false;
  }
  PendingCopy copy;
  copy.index = std::make_shared<const InvertedIndex>(result.segment);
  copy.path = result.publishedPath;
  copy.bytes = result.segment->fileBytes();
  copy.to = to;
  residentBytes_[to][shard] = copy.bytes;
  pending_[shard] = std::move(copy);
  return true;
}

void LiveCluster::discardCopy(ShardId shard, MachineId to,
                              bool destinationCrashed) {
  std::lock_guard lock(mutex_);
  const auto it = pending_.find(shard);
  if (it == pending_.end() || it->second.to != to) return;
  if (!destinationCrashed) {
    // Evicted before cutover: the destination is healthy, so the copy is
    // removed immediately — dual residency ends here.
    ::unlink(it->second.path.c_str());
  }
  // A crashed destination keeps the published file frozen on disk; it
  // becomes a stray for recoverMachine to reconcile.
  residentBytes_[to].erase(shard);
  pending_.erase(it);
}

void LiveCluster::commitMove(ShardId shard, MachineId from, MachineId to) {
  std::shared_ptr<const InvertedIndex> replacement;
  std::string sourcePath;
  {
    std::lock_guard lock(mutex_);
    const auto it = pending_.find(shard);
    if (it == pending_.end() || it->second.to != to)
      throw std::logic_error("LiveCluster::commitMove without a pending copy");
    replacement = it->second.index;
    pending_.erase(it);
    sourcePath = segmentPath(shard, from);
  }

  // Atomic cutover: the broker's routing entry and live index swap under
  // its mapping lock; queries routed from now on hit the destination copy.
  std::shared_ptr<const InvertedIndex> retiring;
  if (broker_ != nullptr)
    retiring = broker_->applyShardMove(shard, from, to, replacement);
  {
    std::lock_guard lock(mutex_);
    auto planeOld = std::exchange(table_[shard], replacement);
    if (!retiring) retiring = std::move(planeOld);
    mapping_[shard] = to;
  }

  // Drain-by-refcount: in-flight tasks copied the old shared_ptr before the
  // swap; wait for them to finish before touching the source file. The
  // timeout is a safety valve — the mapping already cut over, so a late
  // task only reads a file we are about to unlink (POSIX keeps the inode
  // alive until the mapping drops).
  auto& registry = obs::MetricsRegistry::global();
  const auto drainStart = Clock::now();
  const auto deadline =
      drainStart + std::chrono::duration<double>(config_.drainTimeoutSeconds);
  while (retiring.use_count() > 1 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  const double waited =
      std::chrono::duration<double>(Clock::now() - drainStart).count();
  registry.gauge("migrate.drain_wait_seconds").add(waited);
  if (retiring.use_count() > 1)
    registry.counter("migrate.drain_timeouts").add();

  // Drop the departed replica: page cache first (so the copy's memory
  // returns now, not at some distant munmap), then the file.
  if (retiring) {
    if (const auto& segment = retiring->segment()) segment->dropPageCache();
    retiring.reset();
  }
  ::unlink(sourcePath.c_str());
  {
    std::lock_guard lock(mutex_);
    residentBytes_[from].erase(shard);
    ++cutovers_;
  }
  registry.counter("migrate.cutovers").add();
}

void LiveCluster::machineCrashed(MachineId machine) {
  std::lock_guard lock(mutex_);
  if (machine < machineCount_) down_[machine] = 1;
}

void LiveCluster::recoverMachine(MachineId machine) {
  if (machine >= machineCount_) return;
  auto& registry = obs::MetricsRegistry::global();
  const std::string dir = machineDir(machine);

  // 1. Orphaned temp files: debris of copies that were in flight when the
  //    machine died. Never visible to serving; removed wholesale.
  const std::size_t orphans = util::removeTempFiles(dir);
  if (orphans > 0) registry.counter("migrate.gc_orphans").add(orphans);

  std::lock_guard lock(mutex_);
  // 2. Stray segments: published files the current mapping does not place
  //    here (copies lost to the crash, or shards evacuated off the corpse
  //    while it was down). Remove them and rebuild the byte accounting
  //    from what actually survives on disk.
  std::size_t strays = 0;
  residentBytes_[machine].clear();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    const ShardId shard = parseShardFileName(name);
    if (shard == kNotASegment) continue;
    if (shard >= mapping_.size() || mapping_[shard] != machine) {
      fs::remove(entry.path(), ec);
      ++strays;
      continue;
    }
    residentBytes_[machine][shard] =
        static_cast<std::uint64_t>(entry.file_size(ec));
  }
  if (strays > 0) registry.counter("migrate.gc_stray_segments").add(strays);
  down_[machine] = 0;
}

LiveCluster::AuditReport LiveCluster::audit() const {
  AuditReport report;
  std::lock_guard lock(mutex_);
  std::vector<char> seen(mapping_.size(), 0);
  for (MachineId m = 0; m < machineCount_; ++m) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(machineDir(m), ec)) {
      if (!entry.is_regular_file(ec) || ec) continue;
      const std::string name = entry.path().filename().string();
      if (util::isTempFileName(name)) {
        ++report.orphanTempFiles;
        report.problems.push_back("orphan temp: " + entry.path().string());
        continue;
      }
      const ShardId shard = parseShardFileName(name);
      if (shard == kNotASegment) continue;
      ++report.segmentFiles;
      if (shard >= mapping_.size() || mapping_[shard] != m) {
        ++report.straySegments;
        report.problems.push_back("stray segment: " + entry.path().string());
      } else {
        seen[shard] = 1;
      }
      try {
        MappedSegment check(entry.path().string());
        (void)check;
      } catch (const SegmentFormatError& e) {
        ++report.tornSegments;
        report.problems.push_back("torn segment " + entry.path().string() +
                                  ": " + e.what());
      }
    }
  }
  for (ShardId s = 0; s < mapping_.size(); ++s)
    if (!seen[s]) {
      ++report.missingSegments;
      report.problems.push_back("missing segment for shard " + std::to_string(s));
    }
  return report;
}

}  // namespace resex::serve
