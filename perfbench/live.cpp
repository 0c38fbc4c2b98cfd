// live_migration: writes beside reads. datacenter_day's drill in a fixed
// time budget: a live-mode broker serves diurnal Zipf traffic from
// per-machine segment files, with the result cache on and service pacing
// emulating machine capacity; each epoch ClusterController replans from the
// load the epoch's traffic asked of each shard and the executor copies,
// validates and cuts over real segment files under the datacenter_day fault
// plan (copy failures, a straggler NIC, a machine crash and its recovery;
// see kCrashEpoch for where they fall). The broker, cache and
// index layers also do routing swaps, provenance invalidation and live
// index swaps here, so a read-path gain that costs a cutover shows.
//
// Traffic is open loop from one thread straight into QueryBroker::submit.
// p50_ms/p99_ms cover every query of the day, migration windows included
// (the per-layer record splits the steady and in-window tails);
// capacity_qps is the capacity ladder run against the paced live cluster
// before the day starts; bottleneck is the day's final mapping under the
// planned demand. Fault draws, replan seeds and per-epoch demand depend on
// the run's seed alone, so one seed always ends the day on one mapping.

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>

#include "cluster/assignment.hpp"
#include "control/controller.hpp"
#include "index/partition.hpp"
#include "open_loop.hpp"
#include "serve/broker.hpp"
#include "serve/live_migration.hpp"
#include "serve/search_service.hpp"
#include "workload/diurnal.hpp"
#include "workloads.hpp"

namespace resex::perfbench {
namespace {

constexpr std::uint32_t kDocs = 16000;
constexpr std::uint32_t kTerms = 3000;
constexpr std::size_t kPartitions = 6;
constexpr std::size_t kMachines = 4;
constexpr std::size_t kEpochs = 6;
constexpr std::size_t kPoolSize = 4000;
constexpr std::uint64_t kStopwords = 20;
constexpr double kServiceFixed = 300e-6;
constexpr double kServicePerPosting = 2e-6;
/// Well under the pool, so most queries miss and p50 is a paced answer.
constexpr std::size_t kCacheEntries = 128;
/// The diurnal peak (1.45x) stays near half the paced cluster's capacity,
/// so a plan that packs three shards on one machine does not queue there.
constexpr double kBaseQps = 250.0;
constexpr double kCopySeconds = 0.15;
constexpr double kCopyFailure = 0.25;
constexpr double kP99Limit = 0.050;
/// How much a flash crowd multiplies its shards' demand. datacenter_day's
/// 3x leaves the last epoch's crowded shard 5 within a few percent of the
/// heavy shard 3, so the corpus a seed draws decided which of them the plan
/// isolated, and the day's final bottleneck read 0.38 or 0.27 by seed.
constexpr double kCrowdFactor = 4.0;
/// The crash falls in the quiet morning and the straggler at the diurnal
/// peak (datacenter_day has them the other way round). A crash at the peak
/// left the surviving machines overloaded until the next epoch, and how far
/// depended on the seed's shard costs: the day's p99 spread 0.55 over seeds.
constexpr std::size_t kStragglerEpoch = 3;
constexpr std::size_t kCrashEpoch = 1;
/// Fixed shapes, not seed draws, so every seed migrates comparable
/// amounts: a sticky initial placement that leaves machine 3 empty, and
/// fixed straggler and crash victims.
const std::vector<MachineId> kInitial = {0, 0, 1, 0, 1, 2};
constexpr MachineId kStraggler = 2;
constexpr MachineId kCrashed = 1;
/// The fault draws and replan searches are part of the scenario too; the
/// run's seed drives the corpus, the queries and the traffic.
constexpr std::uint64_t kControlSeed = 7;

/// Set-up: corpus, skewed partitions, query pool, twin-broker oracle, the
/// planned instance, segment files laid out per machine, the live broker,
/// and a short warm-up.
struct LiveStack {
  LiveStack(std::uint64_t seed, std::string rootDir) : root(std::move(rootDir)) {
    SyntheticDocConfig docConfig;
    docConfig.seed = seed;
    docConfig.docCount = kDocs;
    docConfig.termCount = kTerms;
    index = std::make_unique<PartitionedIndex>(kTerms, generateDocuments(docConfig),
                                               kPartitions,
                                               skewedWeights(kPartitions, 0.5));
    pool = zipfQueries(kPoolSize, kTerms, kStopwords, 2, seed + 101);

    // Planned per-shard CPU: a slice of the pool through the kernel the
    // workers run, priced at the pacing rates (datacenter_day's model).
    plannedCpu.assign(kPartitions, 0.0);
    QueryScratch scratch;
    const std::size_t sample = 400;
    for (std::size_t s = 0; s < kPartitions; ++s) {
      ExecStats exec;
      for (std::size_t q = 0; q < sample; ++q)
        topKDisjunctiveInto(index->shard(s), pool[q], 10, Bm25Params{}, scratch, &exec,
                            &index->globalStats());
      plannedCpu[s] = kServiceFixed + kServicePerPosting *
                                          static_cast<double>(exec.postingsScanned) /
                                          static_cast<double>(sample);
    }
    double totalCpu = 0.0, totalBytes = 0.0;
    shards.resize(kPartitions);
    for (ShardId s = 0; s < kPartitions; ++s) {
      const double bytes = static_cast<double>(index->shard(s).indexBytes());
      shards[s] = {s, ResourceVector{plannedCpu[s], bytes}, bytes};
      shardBytes.push_back(bytes);
      totalCpu += plannedCpu[s];
      totalBytes += bytes;
    }
    machines.resize(kMachines);
    for (std::size_t m = 0; m < kMachines; ++m)
      machines[m] = {static_cast<MachineId>(m),
                     ResourceVector{1.2 * totalCpu, 1.2 * totalBytes}, false, 0};
    planned = std::make_unique<Instance>(makeInstance(plannedCpu, kInitial));

    config.topK = 10;
    config.seed = seed;
    {
      serve::QueryBroker oracle(*planned, kInitial, *index, config);
      expected.reserve(pool.size());
      for (const auto& terms : pool)
        expected.push_back(canonicalBytes(serve::toWireResponse(oracle.execute(terms))));
      oracle.shutdown();
    }

    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    serve::LiveClusterConfig liveConfig;
    liveConfig.rootDir = root;
    liveConfig.migrationBandwidth =
        (totalBytes / static_cast<double>(kPartitions)) / kCopySeconds;
    const auto loadStart = Clock::now();
    cluster = std::make_unique<serve::LiveCluster>(*planned, *index, kInitial, liveConfig);
    segmentLoadSeconds = secondsSince(loadStart);

    config.workersPerMachine = 2;
    config.serviceFixedSeconds = kServiceFixed;
    config.servicePerPostingSeconds = kServicePerPosting;
    config.cacheCapacity = kCacheEntries;
    broker = std::make_unique<serve::QueryBroker>(*planned, kInitial, *index, config,
                                                  cluster->shardIndexes());
    cluster->attachBroker(broker.get());

    std::vector<std::uint32_t> first(200);
    for (std::size_t i = 0; i < first.size(); ++i) first[i] = static_cast<std::uint32_t>(i);
    warmMismatches = replayInproc(*broker, pool, expected,
                                  bench::arrivalOffsets(first.size(), kBaseQps), first)
                         .mismatches;
    broker->takeObservedLoad();
  }

  ~LiveStack() {
    if (broker) broker->shutdown();
    if (cluster) cluster->attachBroker(nullptr);
    broker.reset();
    cluster.reset();
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }

  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  Instance makeInstance(const std::vector<double>& cpu,
                        const std::vector<MachineId>& mapping) const {
    std::vector<Shard> epochShards = shards;
    for (ShardId s = 0; s < kPartitions; ++s) epochShards[s].demand[0] = cpu[s];
    std::vector<std::uint32_t> groups(kPartitions);
    for (ShardId s = 0; s < kPartitions; ++s) groups[s] = s;
    return Instance(2, machines, std::move(epochShards), mapping, 0,
                    ResourceVector{0.3, 1.0}, std::move(groups));
  }

  std::string root;
  std::unique_ptr<PartitionedIndex> index;
  std::vector<std::vector<TermId>> pool;
  std::vector<std::string> expected;
  std::vector<double> plannedCpu;
  std::vector<double> shardBytes;
  std::vector<Shard> shards;
  std::vector<Machine> machines;
  std::unique_ptr<Instance> planned;
  serve::ServeConfig config;
  std::unique_ptr<serve::LiveCluster> cluster;
  std::unique_ptr<serve::QueryBroker> broker;
  double segmentLoadSeconds = 0.0;
  std::size_t warmMismatches = 0;
};

struct Day {
  std::vector<std::uint32_t> picks;
  InprocResult traffic;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  std::vector<EpochReport> reports;
  double migrationSeconds = 0.0;  ///< summed ClusterController::step wall time
  std::uint64_t cutovers = 0;
  LoadTotals load;
  std::uint64_t entriesInvalidated = 0;
  std::vector<std::size_t> epochBegin;  ///< first arrival of each epoch
  std::vector<std::vector<MachineId>> mappings;  ///< after each epoch's step
};

/// One compressed day: kEpochs epochs of epochSeconds each, diurnal rates,
/// and from epoch 1 on a migration a third of the way into every epoch.
Day runDay(LiveStack& stack, double epochSeconds, std::uint64_t seed,
           MigrationDataPlane& plane, SpanStore* spans) {
  // `seed` picks the traffic only; see kControlSeed.
  Day day;
  const DiurnalModel diurnal{1.0, 0.45, 14.0, 0.15};
  std::vector<double> offsets;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const double hour = 24.0 * (static_cast<double>(e) + 0.5) / kEpochs;
    const double rate = kBaseQps * diurnal.multiplier(hour);
    const auto count = static_cast<std::size_t>(rate * epochSeconds);
    day.epochBegin.push_back(offsets.size());
    for (std::size_t i = 0; i < count; ++i)
      offsets.push_back(static_cast<double>(e) * epochSeconds +
                        static_cast<double>(i) / rate);
  }
  day.picks = zipfPicks(offsets.size(), stack.pool.size(), seed * 31 + 7);
  const std::uint64_t cutoversBefore = stack.cluster->cutovers();
  const std::uint64_t invalidatedBefore = stack.broker->cacheStats().entriesInvalidated;
  stack.broker->takeObservedLoad();

  // Postings each asked query scans per shard, from a direct kernel replay
  // (serve_bench's trace-exact demand): what the plan prices each epoch.
  std::vector<std::vector<double>> postings(stack.pool.size());
  QueryScratch scratch;
  for (const std::uint32_t q : day.picks) {
    if (!postings[q].empty()) continue;
    postings[q].resize(kPartitions);
    for (ShardId s = 0; s < kPartitions; ++s) {
      ExecStats exec;
      topKDisjunctiveInto(stack.index->shard(s), stack.pool[q], stack.config.topK,
                          stack.config.bm25, scratch, &exec, &stack.index->globalStats());
      postings[q][s] = static_cast<double>(exec.postingsScanned);
    }
  }

  std::exception_ptr trafficError;
  const auto dayStart = Clock::now();
  std::thread traffic([&] {
    try {
      day.traffic = replayInproc(*stack.broker, stack.pool, stack.expected, offsets,
                                 day.picks);
    } catch (...) {
      trafficError = std::current_exception();
    }
  });

  const std::uint32_t stepName = spans ? spans->intern("control.ClusterController.step") : 0;
  std::size_t windowBegin = 0;
  for (std::size_t e = 1; e < kEpochs; ++e) {
    const double cut = (static_cast<double>(e) + 1.0 / 3.0) * epochSeconds;
    std::this_thread::sleep_until(
        dayStart + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(cut)));
    day.load.add(stack.broker->takeObservedLoad(), *stack.broker);
    // The epoch's demand is the work its arrivals (by scheduled time) asked
    // of each shard, priced at the pacing rates that define the emulated
    // machines. The broker's observed window would also see which answers
    // the cache held and where the wall-clock cut fell, and either can flip
    // the plan between runs of one seed.
    const std::size_t windowEnd = static_cast<std::size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), cut) - offsets.begin());
    std::vector<double> demand(kPartitions, 0.0);
    for (std::size_t i = windowBegin; i < windowEnd; ++i)
      for (ShardId s = 0; s < kPartitions; ++s) demand[s] += postings[day.picks[i]][s];
    for (ShardId s = 0; s < kPartitions; ++s)
      demand[s] = kServiceFixed + kServicePerPosting * demand[s] /
                                      static_cast<double>(windowEnd - windowBegin);
    windowBegin = windowEnd;
    // A rotating flash crowd on two shards, as in datacenter_day.
    demand[(2 * e) % kPartitions] *= kCrowdFactor;
    demand[(2 * e + 1) % kPartitions] *= kCrowdFactor;

    ControllerConfig controllerConfig;
    controllerConfig.trigger.always = true;
    controllerConfig.useExecutor = true;
    controllerConfig.dataPlane = &plane;
    controllerConfig.sra.lns.seed = kControlSeed + e;
    controllerConfig.sra.lns.maxIterations = 4000;
    controllerConfig.sra.lns.timeBudgetSeconds = 0.5;
    controllerConfig.sra.polish = false;
    controllerConfig.executor.maxRetries = 2;
    controllerConfig.executor.maxReplans = 2;
    controllerConfig.executor.sra = controllerConfig.sra;
    controllerConfig.faults.seed = kControlSeed * 1000 + e;
    controllerConfig.faults.copyFailureProbability = kCopyFailure;
    if (e == kStragglerEpoch) controllerConfig.faults.stragglers.push_back({kStraggler, 0.25});
    if (e == kCrashEpoch) controllerConfig.faults.crashes.push_back({kCrashed, 0, 0.5});

    const Instance epochInstance = stack.makeInstance(demand, stack.cluster->mapping());
    ClusterController controller(controllerConfig);
    const auto stepStart = Clock::now();
    day.reports.push_back(controller.step(epochInstance));
    const auto stepEnd = Clock::now();
    day.windows.emplace_back(stepStart, stepEnd);
    day.mappings.push_back(stack.cluster->mapping());
    day.migrationSeconds += std::chrono::duration<double>(stepEnd - stepStart).count();
    if (spans) spans->record(stepName, e, 0, stepStart, stepEnd);
    // The dead machine comes back with its disk intact: recovery GC
    // collects the debris, then it can host shards again.
    for (const MachineId m : day.reports.back().crashedMachines) plane.recoverMachine(m);
  }
  traffic.join();
  if (trafficError) std::rethrow_exception(trafficError);
  day.load.add(stack.broker->takeObservedLoad(), *stack.broker);
  day.cutovers = stack.cluster->cutovers() - cutoversBefore;
  day.entriesInvalidated = stack.broker->cacheStats().entriesInvalidated - invalidatedBefore;
  return day;
}

/// The day's latencies split by whether the query overlapped a migration
/// window (arrived before one ended and completed after it began).
void splitLatencies(const Day& day, std::vector<double>& steady,
                    std::vector<double>& during) {
  for (std::size_t i = 0; i < day.traffic.latency.size(); ++i) {
    bool overlaps = false;
    for (const auto& [start, end] : day.windows)
      overlaps = overlaps || (day.traffic.due[i] <= end && day.traffic.done[i] >= start);
    (overlaps ? during : steady).push_back(day.traffic.latency[i]);
  }
}

/// The day's correctness gate: every answer the oracle's, and a clean
/// filesystem audit afterwards. Returns the audit's wall time.
double checkDay(LiveStack& stack, const Day& day, RunResult& result) {
  if (day.traffic.mismatches > 0)
    result.fail(std::to_string(day.traffic.mismatches) +
                " live answers differed from the oracle");
  result.attempted += day.traffic.latency.size();
  result.failed += day.traffic.failures;
  const auto start = Clock::now();
  const serve::LiveCluster::AuditReport audit = stack.cluster->audit();
  const double seconds = secondsSince(start);
  for (const std::string& problem : audit.problems) result.fail("audit: " + problem);
  if (!audit.clean()) result.fail("post-day filesystem audit is not clean");
  if (day.cutovers == 0) result.fail("no cutover happened during the day");
  return seconds;
}

double finalBottleneck(const LiveStack& stack) {
  return Assignment(*stack.planned, stack.cluster->mapping()).bottleneckUtilization();
}

std::string rootFor(const RunOptions& options, int rep) {
  return options.scratchDir + "/live-" + std::to_string(::getpid()) + "-" +
         std::to_string(rep);
}

}  // namespace

RunResult runLiveMigration(const RunOptions& options, SpanStore& spans) {
  RunResult result;
  const double epochSeconds = options.seconds * 0.7 / static_cast<double>(kEpochs);

  if (!options.trace) {
    std::vector<double> setups;
    std::unique_ptr<LiveStack> stack;
    for (int rep = 0; rep < 3; ++rep) {
      stack.reset();
      const auto t0 = Clock::now();
      stack = std::make_unique<LiveStack>(options.seed, rootFor(options, rep));
      setups.push_back(secondsSince(t0));
      if (stack->warmMismatches > 0) result.fail("warm-up answers differed from the oracle");
    }
    std::sort(setups.begin(), setups.end());

    // Capacity of the paced cluster as set up, before any migration.
    std::uint64_t probeSeed = options.seed * 1000 + 1;
    std::size_t ladderMismatches = 0;
    const double capacity = ladderCapacity(
        result, geometricLadder(100.0, 4000.0, 1.04), kP99Limit, [&](double rate) {
          const auto count = static_cast<std::size_t>(rate * options.seconds * 0.02);
          InprocResult pass = replayInproc(
              *stack->broker, stack->pool, stack->expected, bench::arrivalOffsets(count, rate),
              zipfPicks(count, stack->pool.size(), probeSeed++));
          ladderMismatches += pass.mismatches;
          ProbeOutcome outcome;
          outcome.p99Seconds = windowedP99(pass.latency, kProbeWindows);
          outcome.genLagP99Seconds = windowedP99(pass.genLag, kProbeWindows);
          outcome.failures = pass.failures;
          outcome.backlogGrowing = pass.drainSeconds > kP99Limit;
          return outcome;
        });
    if (ladderMismatches > 0) result.fail("ladder answers differed from the oracle");

    const Day day = runDay(*stack, epochSeconds, options.seed, *stack->cluster, nullptr);
    checkDay(*stack, day, result);
    const Summary latency = summarize(day.traffic.latency);
    result.noteSamples("latency", latency);
    std::vector<double> steady, during;
    splitLatencies(day, steady, during);
    result.details["migration_window.samples"] = static_cast<double>(during.size());
    result.details["steady.p99_ms"] = summarize(steady).p99 * 1e3;
    result.details["migration_window.p99_ms"] = summarize(during).p99 * 1e3;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const std::size_t end = e + 1 < kEpochs ? day.epochBegin[e + 1] : day.picks.size();
      const std::vector<double> slice(day.traffic.latency.begin() + day.epochBegin[e],
                                      day.traffic.latency.begin() + end);
      result.details["epoch." + std::to_string(e) + ".p99_ms"] = summarize(slice).p99 * 1e3;
      if (e == 0) continue;
      double mapping = 0.0;  // the machine of shard s is decimal digit s
      for (const MachineId m : day.mappings[e - 1]) mapping = mapping * 10.0 + m;
      result.details["epoch." + std::to_string(e) + ".mapping"] = mapping;
    }
    setEndToEnd(result, setups[1], latency.p50, latency.p99, capacity,
                finalBottleneck(*stack));
    return result;
  }

  LiveStack stack(options.seed, rootFor(options, 0));
  if (stack.warmMismatches > 0) result.fail("warm-up answers differed from the oracle");
  auto& m = result.metrics;
  m["index.segment_load_s"] = stack.segmentLoadSeconds;

  // Steady-state overhead check: the same schedule untraced, then traced.
  const auto count = static_cast<std::size_t>(kBaseQps * options.seconds * 0.1);
  const std::vector<double> offsets = bench::arrivalOffsets(count, kBaseQps);
  const std::vector<std::uint32_t> picks =
      zipfPicks(count, stack.pool.size(), options.seed * 7);
  const InprocResult plain =
      replayInproc(*stack.broker, stack.pool, stack.expected, offsets, picks);
  const InprocResult traced =
      replayInproc(*stack.broker, stack.pool, stack.expected, offsets, picks);
  recordInprocSpans(spans, traced);
  const double plainP50 = summarize(plain.latency).p50;
  m["bench.trace_overhead_frac"] =
      plainP50 > 0.0 ? summarize(traced.latency).p50 / plainP50 - 1.0 : 0.0;
  if (plain.mismatches + traced.mismatches > 0)
    result.fail("steady answers differed from the oracle");

  TimedDataPlane plane(*stack.cluster, stack.shardBytes, &spans);
  const Day day = runDay(stack, epochSeconds, options.seed, plane, &spans);
  recordInprocSpans(spans, day.traffic);
  m["control.audit_s"] = checkDay(stack, day, result);

  std::vector<std::uint8_t> wanted(stack.pool.size(), 0);
  for (std::size_t i = 0; i < day.picks.size(); ++i)
    if (day.traffic.executed[i]) wanted[day.picks[i]] = 1;
  const IndexReplay replay = replayIndex(*stack.index, stack.pool, stack.config.topK,
                                         stack.config.bm25, wanted, spans);
  setIndexMetrics(result, replay, day.picks, day.traffic.executed);
  setSubmitMetrics(result, replay, day.picks, day.traffic);
  setLoadMetrics(result, day.load);
  m["serve.cache_entries_invalidated"] = static_cast<double>(day.entriesInvalidated);

  std::vector<double> steady, during;
  splitLatencies(day, steady, during);
  m["serve.steady_p99_ms"] = summarize(steady).p99 * 1e3;
  m["serve.migration_p99_ms"] = summarize(during).p99 * 1e3;
  m["serve.migration_queries"] = static_cast<double>(during.size());
  m["bench.gen_lag_ms.p99"] = summarize(day.traffic.genLag).p99 * 1e3;

  double solveSeconds = 0.0, executedBytes = 0.0;
  std::size_t retries = 0, aborted = 0;
  for (const EpochReport& report : day.reports) {
    solveSeconds += report.solveSeconds;
    executedBytes += report.executedBytes;
    retries += report.retries;
    aborted += report.abortedMoves;
  }
  const Summary copies = summarize(plane.copySeconds());
  const Summary commits = summarize(plane.commitSeconds());
  m["control.solve_s"] = solveSeconds;
  m["control.copy_ms.p50"] = copies.p50 * 1e3;
  m["control.copy_ms.max"] = copies.max * 1e3;
  m["control.commit_ms.p50"] = commits.p50 * 1e3;
  m["control.commit_ms.max"] = commits.max * 1e3;
  m["control.moves_committed"] = static_cast<double>(day.cutovers);
  m["control.retries"] = static_cast<double>(retries);
  m["control.aborted_moves"] = static_cast<double>(aborted);
  m["control.wasted_gb"] = plane.wastedBytes() * 1e-9;
  m["control.migration_s"] = day.migrationSeconds;
  m["cluster.move_gb"] = executedBytes * 1e-9;
  m["model.bottleneck"] = finalBottleneck(stack);
  measureSolverLayers(options.seed, result, spans);
  result.noteSamples("control.copy_ms", copies);
  result.noteSamples("control.commit_ms", commits);
  return result;
}

}  // namespace resex::perfbench
