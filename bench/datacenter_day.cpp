// datacenter_day — the live-migration "datacenter day" drill.
//
// One simulated day of serving on a real data plane: a LiveCluster lays
// every shard's segment file out on per-machine directories, a live-mode
// QueryBroker serves diurnally modulated Zipf traffic from those files,
// and each daytime epoch the controller replans from *observed* load and
// the MigrationExecutor physically moves segment files — bandwidth-
// throttled chunked copies, fsync+rename publish, validate+warm, atomic
// cutover through the broker, drain, source drop — while the clients keep
// querying. Seeded faults ride along: copy failures every migration,
// a straggler machine with degraded bandwidth, and a full machine crash
// mid-migration (evacuation replan + recovery GC of the debris).
//
// Every single query result is checked against the PartitionedIndex
// oracle, so the drill's correctness gate is absolute: zero incorrect and
// zero wrongly-empty results across the whole day, migrations included.
// Latency samples are split into steady vs migration-window populations.
//
// Emits BENCH_day.json. --check exits nonzero unless:
//   * migration-window p99 <= 1.5x steady p99,
//   * zero incorrect / wrongly-empty results,
//   * at least one real cutover happened and queries overlapped it,
//   * the result cache kept its entries across every cutover (a move
//     changes placement, not content, so nothing is invalidated),
//   * the post-drill filesystem audit is clean (no torn segments, no
//     orphaned temps, no strays, nothing missing).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "index/partition.hpp"
#include "serve/broker.hpp"
#include "serve/live_migration.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/diurnal.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace resex;
using Clock = std::chrono::steady_clock;

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

struct EpochRecord {
  std::size_t epoch = 0;
  double hour = 0.0;
  double qps = 0.0;
  std::uint64_t queries = 0;
  bool migrated = false;
  std::size_t movesCommitted = 0;
  std::size_t abortedMoves = 0;
  std::size_t retries = 0;
  std::size_t replans = 0;
  std::size_t crashed = 0;
  bool degraded = false;
  double migrationSeconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("docs", "16000", "documents in the corpus")
      .define("terms", "3000", "vocabulary size")
      .define("partitions", "6", "logical index partitions (= physical shards)")
      .define("machines", "4", "machines")
      .define("epochs", "6", "epochs across the simulated day")
      .define("queries", "400", "queries per epoch")
      .define("base-qps", "250", "mean offered arrival rate")
      .define("amplitude", "0.45", "diurnal peak-to-mean swing")
      .define("clients", "4", "client threads")
      .define("service-fixed-us", "300", "emulated fixed service cost per task")
      .define("service-per-posting-us", "2",
              "emulated service cost per posting scanned")
      .define("skew-sigma", "0.5", "lognormal sigma of partition sizes")
      .define("placement-skew", "1.6", "initial placement stickiness exponent")
      .define("copy-seconds", "0.15",
              "target seconds per un-degraded segment copy (sets bandwidth)")
      .define("copy-fail", "0.25", "per-attempt copy failure probability")
      .define("straggler-epoch", "1",
              "epoch whose migration runs with one machine at 25% bandwidth "
              "(-1 = none)")
      .define("crash-epoch", "3",
              "epoch whose migration loses a machine mid-flight (-1 = none)")
      .define("cache", "256", "result cache entries")
      .define("seed", "7", "random seed")
      .define("dir", "", "data-plane root directory (empty = temp, removed)")
      .define("out", "BENCH_day.json", "output record path")
      .define("check", "false", "exit nonzero unless every gate holds");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("datacenter_day");
    return 0;
  }

  const auto seed = flags.count<std::uint64_t>("seed");
  const auto partitions = flags.count("partitions");
  const auto machineCount = flags.count("machines");
  const auto epochs = flags.count("epochs");
  const auto queriesPerEpoch = flags.count("queries");
  const double serviceFixed = flags.real("service-fixed-us") * 1e-6;
  const double servicePerPosting = flags.real("service-per-posting-us") * 1e-6;
  const auto crashEpoch = flags.integer("crash-epoch");
  const auto stragglerEpoch = flags.integer("straggler-epoch");

  // -- Corpus, skewed partitions, query traces ----------------------------
  SyntheticDocConfig docConfig;
  docConfig.seed = seed;
  docConfig.docCount = flags.count<std::uint32_t>("docs");
  docConfig.termCount = flags.count<std::uint32_t>("terms");
  const auto documents = generateDocuments(docConfig);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<double> weights(partitions);
  for (double& w : weights) w = rng.lognormal(0.0, flags.real("skew-sigma"));
  const PartitionedIndex index(docConfig.termCount, documents, partitions, weights);

  const std::uint32_t topK = 10;
  const std::uint64_t stopwords = 20;
  const ZipfSampler termPick(docConfig.termCount - stopwords, 0.9);
  Rng traceRng(seed + 101);
  std::vector<std::vector<std::vector<TermId>>> traces(epochs);
  std::vector<std::vector<std::vector<ScoredDoc>>> oracles(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    traces[e].resize(queriesPerEpoch);
    oracles[e].resize(queriesPerEpoch);
    for (std::size_t i = 0; i < queriesPerEpoch; ++i) {
      for (int t = 0; t < 2; ++t)
        traces[e][i].push_back(
            static_cast<TermId>(stopwords + termPick.sample(traceRng) - 1));
      oracles[e][i] = index.searchTopK(traces[e][i], topK, Bm25Params{});
    }
  }

  // -- Instance: measured CPU demand, real index bytes --------------------
  // Per-shard per-query service seconds replay epoch 0's trace through the
  // same kernel the workers run (see serve_bench for why df-summing would
  // overstate demand). Capacities are loose: the day drill measures the
  // migration machinery, not admission-starved planning.
  std::vector<double> plannedCpu(partitions, 0.0);
  {
    QueryScratch scratch;
    for (std::size_t s = 0; s < partitions; ++s) {
      ExecStats exec;
      for (const auto& q : traces[0])
        topKDisjunctiveInto(index.shard(s), q, topK, Bm25Params{}, scratch,
                            &exec, &index.globalStats());
      plannedCpu[s] = serviceFixed + servicePerPosting *
                                         static_cast<double>(exec.postingsScanned) /
                                         static_cast<double>(queriesPerEpoch);
    }
  }
  std::vector<Shard> shards(partitions);
  double totalCpu = 0.0, totalBytes = 0.0;
  for (ShardId s = 0; s < partitions; ++s) {
    const double bytes = static_cast<double>(index.shard(s).indexBytes());
    shards[s] = {s, ResourceVector{plannedCpu[s], bytes}, bytes};
    totalCpu += plannedCpu[s];
    totalBytes += bytes;
  }
  std::vector<Machine> machines(machineCount);
  for (std::size_t m = 0; m < machineCount; ++m)
    machines[m] = {static_cast<MachineId>(m),
                   ResourceVector{1.2 * totalCpu, 1.2 * totalBytes}, false, 0};

  // Drifted initial placement: sticky draw toward low machine ids.
  std::vector<double> stickiness(machineCount);
  for (std::size_t m = 0; m < machineCount; ++m)
    stickiness[m] =
        std::pow(static_cast<double>(m + 1), -flags.real("placement-skew"));
  std::vector<MachineId> initial(partitions);
  for (ShardId s = 0; s < partitions; ++s)
    initial[s] = static_cast<MachineId>(rng.discrete(stickiness));
  std::vector<std::uint32_t> groups(partitions);
  for (ShardId s = 0; s < partitions; ++s) groups[s] = s;
  const auto makeInstance = [&](const std::vector<double>& cpu,
                                const std::vector<MachineId>& mapping) {
    std::vector<Shard> epochShards = shards;
    for (ShardId s = 0; s < partitions; ++s) epochShards[s].demand[0] = cpu[s];
    auto g = groups;
    return Instance(2, machines, std::move(epochShards), mapping, 0,
                    ResourceVector{0.3, 1.0}, std::move(g));
  };
  const Instance instance = makeInstance(plannedCpu, initial);

  // -- Live data plane + live-mode broker ---------------------------------
  std::string rootDir = flags.str("dir");
  const bool ownDir = rootDir.empty();
  if (ownDir) {
    rootDir = (std::filesystem::temp_directory_path() /
               ("datacenter_day." + std::to_string(::getpid())))
                  .string();
  }
  std::filesystem::create_directories(rootDir);

  serve::LiveClusterConfig liveConfig;
  liveConfig.rootDir = rootDir;
  liveConfig.migrationBandwidth =
      (totalBytes / static_cast<double>(partitions)) /
      std::max(1e-3, flags.real("copy-seconds"));
  serve::LiveCluster cluster(instance, index, initial, liveConfig);

  serve::ServeConfig serveConfig;
  serveConfig.topK = topK;
  serveConfig.serviceFixedSeconds = serviceFixed;
  serveConfig.servicePerPostingSeconds = servicePerPosting;
  serveConfig.cacheCapacity = flags.count("cache");
  serveConfig.seed = seed;
  serve::QueryBroker broker(instance, initial, index, serveConfig,
                            cluster.shardIndexes());
  cluster.attachBroker(&broker);

  std::printf("day drill: %zu shards on %zu machines, %zu epochs x %zu queries, "
              "data plane at %s\n",
              partitions, machineCount, epochs, queriesPerEpoch, rootDir.c_str());

  // -- The day -------------------------------------------------------------
  const DiurnalModel diurnal{1.0, flags.real("amplitude"), 14.0, 0.15};
  const auto clients = flags.count("clients");
  std::atomic<bool> migrating{false};
  std::atomic<std::uint64_t> incorrect{0}, wronglyEmpty{0};
  std::vector<double> steadyLatencies, migrationLatencies;
  std::mutex latencyMutex;
  std::vector<double> observedCpu = plannedCpu;
  std::vector<EpochRecord> records(epochs);
  std::uint64_t totalQueries = 0;

  for (std::size_t e = 0; e < epochs; ++e) {
    EpochRecord& record = records[e];
    record.epoch = e;
    record.hour = 24.0 * (static_cast<double>(e) + 0.5) / static_cast<double>(epochs);
    record.qps = flags.real("base-qps") * diurnal.multiplier(record.hour);
    const auto& trace = traces[e];
    const auto& oracle = oracles[e];

    std::atomic<std::size_t> cursor{0};
    const auto phaseStart = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        std::vector<double> steady, during;
        for (;;) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= trace.size()) break;
          std::this_thread::sleep_until(
              phaseStart + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / record.qps)));
          const serve::QueryResult result = broker.execute(trace[i]);
          const bool inWindow = migrating.load(std::memory_order_relaxed);
          // The absolute gate: every answer, any time, is the oracle's.
          const auto& expected = oracle[i];
          bool ok = result.complete && result.docs.size() == expected.size();
          for (std::size_t d = 0; ok && d < expected.size(); ++d)
            ok = result.docs[d].doc == expected[d].doc &&
                 std::abs(result.docs[d].score - expected[d].score) < 1e-9;
          if (!ok) {
            incorrect.fetch_add(1, std::memory_order_relaxed);
            if (result.docs.empty() && !expected.empty())
              wronglyEmpty.fetch_add(1, std::memory_order_relaxed);
          }
          (inWindow ? during : steady).push_back(result.latencySeconds);
        }
        std::lock_guard lock(latencyMutex);
        steadyLatencies.insert(steadyLatencies.end(), steady.begin(), steady.end());
        migrationLatencies.insert(migrationLatencies.end(), during.begin(),
                                  during.end());
      });
    }

    // Mid-phase migration (epoch 0 only gathers the first observed load):
    // replan from last epoch's measured per-shard demand, shaped by a
    // rotating flash crowd, and let the executor move the actual files
    // while the clients above keep querying.
    if (e > 0) {
      while (cursor.load(std::memory_order_relaxed) < trace.size() / 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

      std::vector<double> demand = observedCpu;
      demand[(2 * e) % partitions] *= 3.0;
      demand[(2 * e + 1) % partitions] *= 3.0;

      ControllerConfig controllerConfig;
      controllerConfig.trigger.always = true;
      controllerConfig.useExecutor = true;
      controllerConfig.dataPlane = &cluster;
      controllerConfig.sra.lns.seed = seed * 100 + e;
      controllerConfig.sra.lns.maxIterations = 4000;
      controllerConfig.sra.lns.timeBudgetSeconds = 0.5;
      controllerConfig.sra.polish = false;
      controllerConfig.executor.maxRetries = 2;
      controllerConfig.executor.maxReplans = 2;
      controllerConfig.executor.sra = controllerConfig.sra;
      controllerConfig.faults.seed = seed * 1000 + e;
      controllerConfig.faults.copyFailureProbability = flags.real("copy-fail");
      if (static_cast<std::int64_t>(e) == stragglerEpoch) {
        StragglerEvent straggler;
        straggler.machine = static_cast<MachineId>(seed % machineCount);
        straggler.bandwidthMultiplier = 0.25;
        controllerConfig.faults.stragglers.push_back(straggler);
      }
      if (static_cast<std::int64_t>(e) == crashEpoch) {
        MachineCrashEvent crash;
        crash.machine = static_cast<MachineId>((seed + 1) % machineCount);
        crash.phase = 0;
        crash.fraction = 0.5;
        controllerConfig.faults.crashes.push_back(crash);
      }

      const Instance epochInstance = makeInstance(demand, cluster.mapping());
      ClusterController controller(controllerConfig);
      const std::uint64_t cutoversBefore = cluster.cutovers();
      const auto migrateStart = Clock::now();
      migrating.store(true, std::memory_order_relaxed);
      const EpochReport report = controller.step(epochInstance);
      migrating.store(false, std::memory_order_relaxed);
      record.migrationSeconds =
          std::chrono::duration<double>(Clock::now() - migrateStart).count();
      record.migrated = report.triggered;
      record.movesCommitted =
          static_cast<std::size_t>(cluster.cutovers() - cutoversBefore);
      record.abortedMoves = report.abortedMoves;
      record.retries = report.retries;
      record.replans = report.replans;
      record.crashed = report.crashedMachines.size();
      record.degraded = report.degradedCompletion;

      // The dead machine comes back (disk intact): recovery GC collects
      // orphaned temps and lost copies, then it can host shards again.
      for (const MachineId m : report.crashedMachines) cluster.recoverMachine(m);
    }

    for (std::thread& t : threads) t.join();
    const serve::ObservedLoad load = broker.takeObservedLoad();
    record.queries = load.queries;
    totalQueries += load.queries;
    for (ShardId s = 0; s < partitions; ++s)
      observedCpu[s] = load.shardTasks[s] > 0
                           ? load.shardBusySeconds[s] /
                                 static_cast<double>(load.shardTasks[s])
                           : plannedCpu[s];
  }
  broker.shutdown();

  // -- Post-drill audit and report ----------------------------------------
  const auto audit = cluster.audit();
  for (const std::string& problem : audit.problems)
    std::fprintf(stderr, "audit: %s\n", problem.c_str());

  const double steadyP50 = quantile(steadyLatencies, 0.50);
  const double steadyP95 = quantile(steadyLatencies, 0.95);
  const double steadyP99 = quantile(steadyLatencies, 0.99);
  const double migrationP50 = quantile(migrationLatencies, 0.50);
  const double migrationP99 = quantile(migrationLatencies, 0.99);
  const double p99Ratio = steadyP99 > 0.0 ? migrationP99 / steadyP99 : 0.0;

  Table table({"epoch", "hour", "qps", "queries", "moves", "aborted", "crashed"});
  for (const EpochRecord& r : records)
    table.addRow({std::to_string(r.epoch), Table::num(r.hour), Table::num(r.qps),
                  std::to_string(r.queries), std::to_string(r.movesCommitted),
                  std::to_string(r.abortedMoves), std::to_string(r.crashed)});
  table.print();
  std::printf("steady p99 %.3f ms | migration p99 %.3f ms (ratio %.2f) | "
              "%llu queries, %llu incorrect | %llu cutovers | audit %s\n",
              steadyP99 * 1e3, migrationP99 * 1e3, p99Ratio,
              static_cast<unsigned long long>(totalQueries),
              static_cast<unsigned long long>(incorrect.load()),
              static_cast<unsigned long long>(cluster.cutovers()),
              audit.clean() ? "clean" : "DIRTY");

  JsonWriter json;
  json.beginObject();
  json.field("bench", "datacenter_day");
  json.field("seed", static_cast<std::int64_t>(seed));
  json.field("partitions", static_cast<std::uint64_t>(partitions));
  json.field("machines", static_cast<std::uint64_t>(machineCount));
  json.field("epochs", static_cast<std::uint64_t>(epochs));
  json.field("queries_total", totalQueries);
  json.field("base_qps", flags.real("base-qps"));
  json.field("migration_bandwidth_bytes_per_sec", liveConfig.migrationBandwidth);
  json.key("epoch_records").beginArray();
  for (const EpochRecord& r : records) {
    json.beginObject();
    json.field("epoch", static_cast<std::uint64_t>(r.epoch));
    json.field("hour", r.hour);
    json.field("offered_qps", r.qps);
    json.field("queries", r.queries);
    json.field("migrated", r.migrated);
    json.field("moves_committed", static_cast<std::uint64_t>(r.movesCommitted));
    json.field("aborted_moves", static_cast<std::uint64_t>(r.abortedMoves));
    json.field("retries", static_cast<std::uint64_t>(r.retries));
    json.field("replans", static_cast<std::uint64_t>(r.replans));
    json.field("crashed_machines", static_cast<std::uint64_t>(r.crashed));
    json.field("degraded", r.degraded);
    json.field("migration_seconds", r.migrationSeconds);
    json.endObject();
  }
  json.endArray();
  json.key("latency").beginObject();
  json.field("steady_samples", static_cast<std::uint64_t>(steadyLatencies.size()));
  json.field("steady_p50_seconds", steadyP50);
  json.field("steady_p95_seconds", steadyP95);
  json.field("steady_p99_seconds", steadyP99);
  json.field("migration_samples",
             static_cast<std::uint64_t>(migrationLatencies.size()));
  json.field("migration_p50_seconds", migrationP50);
  json.field("migration_p99_seconds", migrationP99);
  json.field("p99_ratio", p99Ratio);
  json.endObject();
  json.key("correctness").beginObject();
  json.field("incorrect_results", incorrect.load());
  json.field("wrongly_empty_results", wronglyEmpty.load());
  json.endObject();
  json.field("cutovers", cluster.cutovers());
  const serve::CacheStats cache = broker.cacheStats();
  const std::uint64_t lookups = cache.hits + cache.misses;
  json.field("cache_hit_ratio",
             lookups > 0 ? static_cast<double>(cache.hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  json.field("cache_entries_invalidated", cache.entriesInvalidated);
  json.key("audit").beginObject();
  json.field("segment_files", static_cast<std::uint64_t>(audit.segmentFiles));
  json.field("torn_segments", static_cast<std::uint64_t>(audit.tornSegments));
  json.field("orphan_temp_files",
             static_cast<std::uint64_t>(audit.orphanTempFiles));
  json.field("stray_segments", static_cast<std::uint64_t>(audit.straySegments));
  json.field("missing_segments",
             static_cast<std::uint64_t>(audit.missingSegments));
  json.field("clean", audit.clean());
  json.endObject();

  const bool latencyGate = p99Ratio <= 1.5 && !migrationLatencies.empty();
  const bool correctGate = incorrect.load() == 0 && wronglyEmpty.load() == 0;
  const bool movedGate = cluster.cutovers() > 0;
  const bool cacheKeptGate = movedGate && cache.entriesInvalidated == 0;
  const bool pass =
      latencyGate && correctGate && movedGate && cacheKeptGate && audit.clean();
  json.key("gates").beginObject();
  json.field("migration_p99_within_1p5x", latencyGate);
  json.field("zero_incorrect", correctGate);
  json.field("cutovers_happened", movedGate);
  json.field("cache_kept_across_cutovers", cacheKeptGate);
  json.field("audit_clean", audit.clean());
  json.field("pass", pass);
  json.endObject();
  json.endObject();
  std::ofstream(flags.str("out")) << json.str() << "\n";
  std::printf("record written to %s\n", flags.str("out").c_str());

  if (ownDir) {
    std::error_code ec;
    std::filesystem::remove_all(rootDir, ec);
  }

  if (flags.boolean("check") && !pass) {
    std::fprintf(stderr,
                 "CHECK FAILED: latency=%d correct=%d moved=%d cache_kept=%d "
                 "audit=%d\n",
                 latencyGate, correctGate, movedGate, cacheKeptGate, audit.clean());
    return 1;
  }
  return 0;
}
