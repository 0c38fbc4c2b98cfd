// Live data-plane migration, end to end: a LiveCluster materializes real
// segment files on disk, a live-mode QueryBroker serves from them, and the
// MigrationExecutor moves the files while queries run.
//
//   * queries issued continuously across a migration stay bit-identical to
//     the PartitionedIndex oracle — before, during, and after cutover;
//   * the mapping and /debug/shards, read while cutovers land, always show
//     a placement the cluster actually passed through, never an older one;
//   * a randomized seeded fault sweep (copy failures + a mid-flight
//     machine crash) always ends, after recovery, with a filesystem the
//     audit can vouch for: no torn segments, no orphaned temps, no strays,
//     and the executor / plane / broker mappings in lockstep;
//   * dual-residency admission rejects copies that would overflow a
//     machine's byte budget before any bytes move;
//   * recoverMachine collects the debris a crashed machine freezes
//     (orphaned temps, lost copies);
//   * a copy whose content differs from the serving shard (its source file
//     swapped for another valid segment) never reaches serving: the
//     executor retries, then aborts the move.
//
// The fault-sweep cases carry the `fault-sweep` ctest label (this file
// builds into test_live_migration; see tests/CMakeLists.txt) so CI runs
// them under ASan/UBSan and TSan explicitly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "common/mini_json.hpp"
#include "control/executor.hpp"
#include "index/partition.hpp"
#include "serve/broker.hpp"
#include "serve/live_migration.hpp"

namespace resex::serve {
namespace {

namespace fs = std::filesystem;

PartitionedIndex smallIndex(std::size_t partitions, std::uint64_t seed = 17) {
  SyntheticDocConfig config;
  config.seed = seed;
  config.docCount = 4000;
  config.termCount = 600;
  return PartitionedIndex(config.termCount, generateDocuments(config), partitions);
}

/// One replica per partition, shard g starting on machine g % machines,
/// with enough headroom that any single move is transient-feasible.
Instance hostingInstance(std::size_t partitions, std::size_t machines) {
  std::vector<Machine> ms(machines);
  for (std::size_t m = 0; m < machines; ++m)
    ms[m] = {static_cast<MachineId>(m), ResourceVector{1.0, 100.0}, false, 0};
  std::vector<Shard> shards(partitions);
  std::vector<MachineId> initial(partitions);
  std::vector<std::uint32_t> groups(partitions);
  for (std::size_t g = 0; g < partitions; ++g) {
    shards[g] = {static_cast<ShardId>(g), ResourceVector{0.01, 1.0}, 1.0};
    initial[g] = static_cast<MachineId>(g % machines);
    groups[g] = static_cast<std::uint32_t>(g);
  }
  return Instance(2, std::move(ms), std::move(shards), std::move(initial),
                  0, ResourceVector{1.0, 1.0}, std::move(groups));
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("live_migration_test." + std::to_string(::getpid()) + "." +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string auditSummary(const LiveCluster::AuditReport& report) {
  std::string out;
  for (const std::string& problem : report.problems) out += problem + "; ";
  return out;
}

/// Asserts `result` is the complete oracle answer for `terms`.
void expectOracle(const PartitionedIndex& index, const QueryResult& result,
                  const std::vector<TermId>& terms, std::uint32_t topK,
                  const Bm25Params& bm25) {
  ASSERT_TRUE(result.complete);
  const auto reference = index.searchTopK(terms, topK, bm25);
  ASSERT_EQ(result.docs.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.docs[i].doc, reference[i].doc);
    EXPECT_NEAR(result.docs[i].score, reference[i].score, 1e-9);
  }
}

TEST(LiveMigration, ContinuousQueriesStayOracleIdenticalAcrossMoves) {
  const std::size_t kPartitions = 3, kMachines = 3;
  const PartitionedIndex index = smallIndex(kPartitions);
  const Instance instance = hostingInstance(kPartitions, kMachines);
  const TempDir dir;

  // Probe the real segment size, then throttle copies to ~150 ms each so
  // queries demonstrably overlap the copy windows.
  std::uintmax_t segmentBytes = 0;
  {
    const TempDir probeDir;
    LiveClusterConfig probeConfig;
    probeConfig.rootDir = probeDir.path.string();
    LiveCluster probe(instance, index, instance.initialAssignment(), probeConfig);
    segmentBytes =
        fs::file_size(probe.segmentPath(0, instance.initialAssignment()[0]));
  }
  LiveClusterConfig throttled;
  throttled.rootDir = dir.path.string();
  throttled.migrationBandwidth = static_cast<double>(segmentBytes) / 0.15;
  LiveCluster cluster(instance, index, instance.initialAssignment(), throttled);

  ServeConfig serveConfig;
  serveConfig.cacheCapacity = 128;
  QueryBroker broker(instance, instance.initialAssignment(), index, serveConfig,
                     cluster.shardIndexes());
  cluster.attachBroker(&broker);
  ASSERT_EQ(broker.placement()->indexes(), cluster.shardIndexes());

  // Fixed query set with precomputed oracle answers.
  const std::vector<std::vector<TermId>> queries = {
      {0, 7}, {25, 3, 110}, {599}, {42, 42}, {5, 9, 200}, {17}};

  std::atomic<bool> stop{false};
  std::atomic<bool> migrating{false};
  std::atomic<std::uint64_t> checkedDuringMigration{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> hitsAfterACutover{0};
  std::atomic<std::uint64_t> startedAfterEveryCutover{0};
  std::thread client([&] {
    std::vector<std::vector<ScoredDoc>> references;
    for (const auto& q : queries)
      references.push_back(
          index.searchTopK(q, serveConfig.topK, serveConfig.bm25));
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::size_t qi = i % queries.size();
      const std::size_t cutovers = cluster.cutovers();
      const bool afterACutover = cutovers > 0;
      if (cutovers == kPartitions)
        startedAfterEveryCutover.fetch_add(1, std::memory_order_relaxed);
      const QueryResult result = broker.execute(queries[qi]);
      if (afterACutover && result.cacheHit)
        hitsAfterACutover.fetch_add(1, std::memory_order_relaxed);
      const auto& reference = references[qi];
      bool ok = result.complete && result.docs.size() == reference.size();
      for (std::size_t d = 0; ok && d < reference.size(); ++d)
        ok = result.docs[d].doc == reference[d].doc &&
             std::abs(result.docs[d].score - reference[d].score) < 1e-9;
      if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
      if (migrating.load(std::memory_order_relaxed))
        checkedDuringMigration.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Rotate every shard one machine over: three real file moves.
  std::vector<MachineId> target = instance.initialAssignment();
  for (MachineId& m : target) m = static_cast<MachineId>((m + 1) % kMachines);
  const Schedule schedule = MigrationScheduler().build(
      instance, instance.initialAssignment(), target);
  ASSERT_TRUE(schedule.complete);
  ASSERT_EQ(schedule.moveCount(), kPartitions);

  migrating.store(true);
  const MigrationExecutor executor{ExecutorConfig{}};
  const ExecutionReport report =
      executor.execute(instance, schedule, FaultPlan{}, &cluster);
  migrating.store(false);
  // The last cutover can land just before execute returns; keep the client
  // running until it has started a full round of queries after it, so the
  // post-cutover assertions below always have queries to look at.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (startedAfterEveryCutover.load() < queries.size() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true);
  client.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(checkedDuringMigration.load(), 10u)
      << "queries did not overlap the migration window";
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.movesCommitted, kPartitions);
  EXPECT_EQ(cluster.cutovers(), kPartitions);
  // Moves keep cached answers: hits (checked against the oracle like every
  // other answer) keep coming after the first cutover, and nothing is
  // invalidated.
  EXPECT_GT(hitsAfterACutover.load(), 0u);
  EXPECT_EQ(broker.cacheStats().entriesInvalidated, 0u);

  // Executor bookkeeping, plane, and broker routing all agree.
  EXPECT_EQ(report.finalMapping, target);
  EXPECT_EQ(cluster.mapping(), target);
  EXPECT_EQ(broker.mapping(), target);
  EXPECT_EQ(broker.placement()->indexes(), cluster.shardIndexes());

  // The filesystem is exactly the mapping: sources dropped, no debris.
  const auto audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
  EXPECT_EQ(audit.segmentFiles, kPartitions);

  // Post-cutover serving is still the oracle.
  for (const auto& q : queries)
    expectOracle(index, broker.execute(q), q, serveConfig.topK,
                 serveConfig.bm25);
  broker.shutdown();
}

TEST(LiveMigration, PlacementReadsStayConsistentWhileCutoversLand) {
  // Three rounds of rotating every shard one machine over, while a second
  // thread reads the mapping and /debug/shards and a third keeps queries
  // in flight. After k cutovers, shard j sits on
  // initial[j] + k / 3 + (j < k % 3), so every read must be one of the ten
  // states the cluster passed through, never older than the previous read.
  const std::size_t kPartitions = 3, kMachines = 3, kRounds = 3;
  const PartitionedIndex index = smallIndex(kPartitions);
  const Instance instance = hostingInstance(kPartitions, kMachines);
  const std::vector<MachineId> initial = instance.initialAssignment();
  const TempDir dir;
  LiveClusterConfig liveConfig;
  liveConfig.rootDir = dir.path.string();
  LiveCluster cluster(instance, index, initial, liveConfig);
  QueryBroker broker(instance, initial, index, ServeConfig{}, cluster.shardIndexes());
  cluster.attachBroker(&broker);

  const auto stateAfter = [&](std::size_t k) {
    std::vector<MachineId> mapping(kPartitions);
    for (std::size_t j = 0; j < kPartitions; ++j)
      mapping[j] = static_cast<MachineId>(
          (initial[j] + k / kPartitions + (j < k % kPartitions ? 1 : 0)) % kMachines);
    return mapping;
  };
  // The first state at or after `from` that `mapping` shows; -1 if none.
  const auto stateFrom = [&](const std::vector<MachineId>& mapping, int from) {
    for (auto k = static_cast<std::size_t>(from); k <= kRounds * kPartitions; ++k)
      if (mapping == stateAfter(k)) return static_cast<int>(k);
    return -1;
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> inconsistent{0};
  std::thread reader([&] {
    int lastMapping = 0, lastJson = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int fromMapping = stateFrom(broker.mapping(), lastMapping);
      const auto json = resex::testing::MiniJson::flatten(broker.shardsJson());
      std::vector<MachineId> shown(kPartitions);
      for (std::size_t s = 0; s < kPartitions; ++s)
        shown[s] = static_cast<MachineId>(
            std::stoul(json.at("shards/" + std::to_string(s) + "/machine")));
      const int fromJson = stateFrom(shown, lastJson);
      if (fromMapping < 0 || fromJson < 0)
        inconsistent.fetch_add(1, std::memory_order_relaxed);
      lastMapping = std::max(lastMapping, fromMapping);
      lastJson = std::max(lastJson, fromJson);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread client([&] {
    for (TermId t = 0; !stop.load(std::memory_order_relaxed); ++t)
      broker.execute({t % 600, 7});
  });

  std::vector<MachineId> mapping = initial;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (ShardId s = 0; s < kPartitions; ++s) {
      const MachineId from = mapping[s];
      const auto to = static_cast<MachineId>((from + 1) % kMachines);
      ASSERT_TRUE(cluster.admitCopy(s, from, to));
      ASSERT_TRUE(cluster.copyShard(s, from, to, CopyFault{}));
      cluster.commitMove(s, from, to);
      mapping[s] = to;
      const std::uint64_t seen = reads.load();
      while (reads.load() < seen + 2) std::this_thread::yield();
    }
  }
  stop.store(true);
  reader.join();
  client.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_EQ(cluster.cutovers(), kRounds * kPartitions);
  EXPECT_EQ(broker.mapping(), stateAfter(kRounds * kPartitions));
  EXPECT_EQ(cluster.mapping(), broker.mapping());
  const auto audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
  broker.shutdown();
}

TEST(LiveMigration, CopyOfADifferentShardIsRejectedAndRetried) {
  const std::size_t kPartitions = 3, kMachines = 3;
  const PartitionedIndex index = smallIndex(kPartitions);
  const Instance instance = hostingInstance(kPartitions, kMachines);
  const TempDir dir;
  LiveClusterConfig liveConfig;
  liveConfig.rootDir = dir.path.string();
  LiveCluster cluster(instance, index, instance.initialAssignment(), liveConfig);
  ServeConfig serveConfig;
  serveConfig.cacheCapacity = 64;
  QueryBroker broker(instance, instance.initialAssignment(), index, serveConfig,
                     cluster.shardIndexes());
  cluster.attachBroker(&broker);
  const std::vector<TermId> q = {5, 9, 200};
  expectOracle(index, broker.execute(q), q, serveConfig.topK, serveConfig.bm25);

  // Shard 0's source file becomes shard 1's segment: validly checksummed,
  // wrong content. The rename leaves the serving mapping on the old inode.
  const fs::path swap = dir.path / "swap.seg";
  fs::copy_file(cluster.segmentPath(1, 1), swap);
  fs::rename(swap, cluster.segmentPath(0, 0));

  EXPECT_FALSE(cluster.copyShard(0, 0, 1, CopyFault{}));
  EXPECT_FALSE(fs::exists(cluster.segmentPath(0, 1)));

  std::vector<MachineId> target = instance.initialAssignment();
  target[0] = 1;
  const Schedule schedule = MigrationScheduler().build(
      instance, instance.initialAssignment(), target);
  ASSERT_EQ(schedule.moveCount(), 1u);
  ExecutorConfig config;
  config.maxRetries = 2;
  const ExecutionReport report =
      MigrationExecutor(config).execute(instance, schedule, FaultPlan{}, &cluster);
  EXPECT_EQ(report.movesCommitted, 0u);
  EXPECT_EQ(report.retries, config.maxRetries);
  EXPECT_EQ(report.abortedMoves, 1u);
  EXPECT_EQ(cluster.cutovers(), 0u);
  EXPECT_EQ(report.finalMapping, instance.initialAssignment());
  EXPECT_EQ(cluster.mapping(), instance.initialAssignment());
  EXPECT_EQ(broker.mapping(), instance.initialAssignment());
  const auto audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
  EXPECT_EQ(audit.segmentFiles, kPartitions);

  // Serving never saw the swapped file: cached and computed answers alike
  // are still the oracle's.
  const QueryResult hit = broker.execute(q);
  EXPECT_TRUE(hit.cacheHit);
  expectOracle(index, hit, q, serveConfig.topK, serveConfig.bm25);
  for (const auto& other : {std::vector<TermId>{0, 7}, std::vector<TermId>{599}})
    expectOracle(index, broker.execute(other), other, serveConfig.topK,
                 serveConfig.bm25);
  broker.shutdown();
}

void runFaultSweepCase(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const std::size_t kPartitions = 4, kMachines = 4;
  const PartitionedIndex index = smallIndex(kPartitions, seed);
  const Instance instance = hostingInstance(kPartitions, kMachines);
  const TempDir dir;

  FaultPlan faults;
  faults.seed = seed * 31 + 7;
  faults.copyFailureProbability = 0.4;
  MachineCrashEvent crash;
  crash.machine = static_cast<MachineId>(seed % kMachines);
  crash.phase = 0;
  crash.fraction = 0.5;
  faults.crashes.push_back(crash);
  const FaultInjector injector(faults);

  LiveClusterConfig liveConfig;
  liveConfig.rootDir = dir.path.string();
  LiveCluster cluster(instance, index, instance.initialAssignment(), liveConfig,
                      &injector);
  ServeConfig serveConfig;
  QueryBroker broker(instance, instance.initialAssignment(), index, serveConfig,
                     cluster.shardIndexes());
  cluster.attachBroker(&broker);

  std::vector<MachineId> target = instance.initialAssignment();
  for (MachineId& m : target) m = static_cast<MachineId>((m + 1) % kMachines);
  const Schedule schedule = MigrationScheduler().build(
      instance, instance.initialAssignment(), target);
  ASSERT_TRUE(schedule.complete);

  ExecutorConfig config;
  config.maxRetries = 2;
  config.maxReplans = 2;
  config.sra.lns.seed = seed + 1;
  config.sra.lns.maxIterations = 2000;
  config.sra.polish = false;
  const MigrationExecutor executor(config);
  const ExecutionReport report =
      executor.execute(instance, schedule, faults, &cluster);

  // Whatever the faults did, bookkeeping and physical routing agree.
  ASSERT_EQ(report.finalMapping.size(), instance.shardCount());
  EXPECT_EQ(cluster.mapping(), report.finalMapping);
  EXPECT_EQ(broker.mapping(), report.finalMapping);

  // Recovery: collect every crashed machine's frozen debris.
  for (const MachineId m : report.crashedMachines) cluster.recoverMachine(m);

  // The audit invariants: no torn segments, no orphaned temps, no strays,
  // every mapped shard backed by a validated file.
  const auto audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
  EXPECT_EQ(audit.segmentFiles, kPartitions);

  // Serving still matches the oracle after the drill.
  for (const auto& q : {std::vector<TermId>{0, 7}, std::vector<TermId>{25, 3},
                        std::vector<TermId>{599}})
    expectOracle(index, broker.execute(q), q, serveConfig.topK,
                 serveConfig.bm25);
  broker.shutdown();
  // Tokens are conserved across the cutovers: the drain returned every one.
  EXPECT_EQ(broker.tokenBank()->freeTokens(), broker.tokenBank()->totalTokens());
}

TEST(LiveMigrationFaultSweep, CrashAndCopyFailuresLeaveATrustworthyCluster) {
  for (const std::uint64_t seed : {3ull, 5ull, 11ull, 20ull}) runFaultSweepCase(seed);
}

TEST(LiveMigration, AdmissionRejectsCopiesOverTheDataBudget) {
  const std::size_t kPartitions = 2, kMachines = 2;
  const PartitionedIndex index = smallIndex(kPartitions);
  const Instance instance = hostingInstance(kPartitions, kMachines);

  // Probe the real segment size first (budgets are in actual file bytes).
  const TempDir probeDir;
  LiveClusterConfig probeConfig;
  probeConfig.rootDir = probeDir.path.string();
  LiveCluster probe(instance, index, instance.initialAssignment(), probeConfig);
  double largest = 0.0;
  for (MachineId m = 0; m < kMachines; ++m)
    largest = std::max(largest, probe.residentBytes(m));

  // A budget that fits steady state but not dual residency: every machine
  // holds one segment, and a second copy would roughly double that.
  const TempDir dir;
  LiveClusterConfig tight;
  tight.rootDir = dir.path.string();
  tight.dataBudgetBytes = largest * 1.5;
  LiveCluster cluster(instance, index, instance.initialAssignment(), tight);
  EXPECT_FALSE(cluster.admitCopy(0, 0, 1));

  // The executor aborts the move at admission: nothing moves, no debris.
  const Schedule schedule = MigrationScheduler().build(
      instance, instance.initialAssignment(), {1, 1});
  ASSERT_EQ(schedule.moveCount(), 1u);
  const MigrationExecutor executor{ExecutorConfig{}};
  const ExecutionReport report =
      executor.execute(instance, schedule, FaultPlan{}, &cluster);
  EXPECT_EQ(report.movesCommitted, 0u);
  EXPECT_EQ(report.abortedMoves, 1u);
  EXPECT_EQ(report.finalMapping, instance.initialAssignment());
  EXPECT_EQ(cluster.mapping(), instance.initialAssignment());
  const auto audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);

  // With the budget lifted the same copy is admitted.
  const TempDir roomyDir;
  LiveClusterConfig roomy;
  roomy.rootDir = roomyDir.path.string();
  LiveCluster unbounded(instance, index, instance.initialAssignment(), roomy);
  EXPECT_TRUE(unbounded.admitCopy(0, 0, 1));
}

TEST(LiveMigration, RecoverMachineCollectsOrphanTempsAndStrayCopies) {
  const std::size_t kPartitions = 2, kMachines = 2;
  const PartitionedIndex index = smallIndex(kPartitions);
  const Instance instance = hostingInstance(kPartitions, kMachines);
  const TempDir dir;
  LiveClusterConfig liveConfig;
  liveConfig.rootDir = dir.path.string();
  LiveCluster cluster(instance, index, instance.initialAssignment(), liveConfig);

  // Destination dies mid-copy: the half-written temp freezes on its disk.
  CopyFault midCopyCrash;
  midCopyCrash.abandonInFlight = true;
  midCopyCrash.destinationCrashed = true;
  midCopyCrash.fraction = 0.5;
  EXPECT_FALSE(cluster.copyShard(0, 0, 1, midCopyCrash));
  cluster.machineCrashed(1);
  auto audit = cluster.audit();
  EXPECT_EQ(audit.orphanTempFiles, 1u);
  EXPECT_FALSE(audit.clean());

  cluster.recoverMachine(1);
  audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);

  // Copy completes, then the destination dies before cutover: the
  // published-but-never-serving file is a stray the recovery removes.
  EXPECT_TRUE(cluster.copyShard(0, 0, 1, CopyFault{}));
  cluster.machineCrashed(1);
  cluster.discardCopy(0, 1, /*destinationCrashed=*/true);
  audit = cluster.audit();
  EXPECT_EQ(audit.straySegments, 1u);
  EXPECT_FALSE(audit.clean());

  cluster.recoverMachine(1);
  audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
  EXPECT_EQ(audit.segmentFiles, kPartitions);

  // Healthy-destination discard cleans up immediately (no recovery pass).
  EXPECT_TRUE(cluster.copyShard(0, 0, 1, CopyFault{}));
  cluster.discardCopy(0, 1, /*destinationCrashed=*/false);
  audit = cluster.audit();
  EXPECT_TRUE(audit.clean()) << auditSummary(audit);
}

}  // namespace
}  // namespace resex::serve
