// serve_bench — the end-to-end, concurrency-real validation of the paper's
// claim: an SRA-rebalanced shard mapping serves *measured* tail latency
// better than a greedy-rebalanced one under identical traffic.
//
// Design. Synthetic documents are indexed into skewed logical partitions
// and served by the multi-threaded QueryBroker — per-machine bounded
// queues and worker threads, scatter-gather with deadlines, exactly as in
// production. Two things make the measurement reproducible on small hosts
// (including single-core CI runners):
//
//   * Service pacing: each worker holds its machine busy for a
//     deterministic service time per task (fixed cost + per-posting cost),
//     so every machine has the service capacity the Instance declares even
//     when all "machines" share one physical core. Shard CPU demand in the
//     instance is *exactly* the emulated per-query service seconds, so the
//     solvers plan on the demand the cluster will realize.
//   * Open-loop arrivals: clients replay one shared trace on a fixed
//     arrival schedule whose rate is placed between the two mappings'
//     computed saturation rates. The greedy mapping's hottest machine is
//     then slightly over capacity — its backlog grows and queries hit the
//     deadline (answering degraded/partial) — while the SRA mapping serves
//     the same schedule with headroom. Near-deterministic service makes
//     this a sharp phase transition, not a noise comparison.
//
// The environment is stringent per the paper: memory headroom so tight
// that direct hottest-to-coldest moves barely fit — the greedy rebalancer
// stalls close to the drifted initial placement, while SRA routes through
// the borrowed exchange machines. A third phase closes the measured-load
// loop: the broker's ObservedLoad from serving the initial placement feeds
// withObservedCpuDemand + ClusterController, and the resulting mapping is
// served too.
//
// Emits BENCH_serve.json; --check exits nonzero unless SRA's measured p99
// strictly beats greedy's.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "core/baselines.hpp"
#include "core/sra.hpp"
#include "index/partition.hpp"
#include "obs/context.hpp"
#include "obs/http.hpp"
#include "obs/slo.hpp"
#include "open_loop.hpp"
#include "serve/broker.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace resex;

struct PhaseOutcome {
  std::string name;
  serve::ObservedLoad load;
  double rho = 0.0;  // offered load at the mapping's hottest machine
  double wallSeconds = 0.0;
};

/// The broker currently serving traffic, published for the HTTP
/// introspection handlers (phases create and destroy brokers; the
/// handlers must never touch a dead one).
std::mutex gLiveBrokerMutex;
resex::serve::QueryBroker* gLiveBroker = nullptr;

void publishLiveBroker(resex::serve::QueryBroker* broker) {
  std::lock_guard lock(gLiveBrokerMutex);
  gLiveBroker = broker;
}

std::string liveBrokerJson(std::string (resex::serve::QueryBroker::*fn)() const) {
  std::lock_guard lock(gLiveBrokerMutex);
  return gLiveBroker ? (gLiveBroker->*fn)() : std::string("{}");
}

/// Replays `trace` through a broker serving `mapping` on a fixed open-loop
/// arrival schedule of `qps`: client threads pull query i from a shared
/// cursor and issue it at phaseStart + i/qps (immediately when behind).
PhaseOutcome runPhase(const std::string& name, const Instance& instance,
                      const std::vector<MachineId>& mapping,
                      const PartitionedIndex& index,
                      const std::vector<std::vector<TermId>>& trace,
                      const serve::ServeConfig& baseConfig, std::size_t clients,
                      double qps) {
  // Each phase is its own SLO class, so /debug/slo (and the --check gate)
  // can compare mappings by their sliding-window quantiles.
  serve::ServeConfig config = baseConfig;
  config.sloClass = name;
  serve::QueryBroker broker(instance, mapping, index, config);
  publishLiveBroker(&broker);
  WallTimer timer;
  bench::OpenLoopStream loop;
  loop.offsets = bench::arrivalOffsets(trace.size(), qps);
  loop.clients = clients;
  bench::replayOpenLoop(
      {loop}, [&](std::size_t, std::size_t i) { broker.execute(trace[i]); });
  PhaseOutcome outcome;
  outcome.name = name;
  outcome.wallSeconds = timer.seconds();
  outcome.load = broker.takeObservedLoad();
  publishLiveBroker(nullptr);
  return outcome;
}

/// Closed-loop (unpaced, no deadline) replay of the trace measuring raw
/// broker throughput with request-scoped tracing on or off — the tracing
/// overhead guard. Open-loop phases can't show this: their rate is fixed
/// by the arrival schedule.
double closedLoopQps(const Instance& instance, const std::vector<MachineId>& mapping,
                     const PartitionedIndex& index,
                     const std::vector<std::vector<TermId>>& trace,
                     const serve::ServeConfig& baseConfig, std::size_t clients,
                     std::size_t reps, bool tracing) {
  serve::ServeConfig config = baseConfig;
  config.deadlineSeconds = 0.0;
  config.serviceFixedSeconds = 0.0;
  config.servicePerPostingSeconds = 0.0;
  config.cacheCapacity = 0;
  config.sloClass.clear();
  config.tracing = tracing;
  serve::QueryBroker broker(instance, mapping, index, config);
  const std::size_t totalQueries = trace.size() * reps;
  WallTimer timer;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= totalQueries) break;
        broker.execute(trace[i % trace.size()]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = timer.seconds();
  return wall > 0.0 ? static_cast<double>(totalQueries) / wall : 0.0;
}

double completeness(const serve::ObservedLoad& load) {
  return load.queries > 0
             ? 1.0 - static_cast<double>(load.expiredQueries) /
                         static_cast<double>(load.queries)
             : 1.0;
}

void writePhase(JsonWriter& json, const PhaseOutcome& outcome) {
  json.key(outcome.name).beginObject();
  json.field("queries", outcome.load.queries);
  json.field("rho_hot", outcome.rho);
  json.field("wall_seconds", outcome.wallSeconds);
  json.field("throughput_qps",
             static_cast<double>(outcome.load.queries) /
                 std::max(1e-9, outcome.wallSeconds));
  json.field("completeness", completeness(outcome.load));
  json.field("expired_queries", outcome.load.expiredQueries);
  json.field("shed_tasks", outcome.load.shedTasks);
  json.field("p50_seconds", outcome.load.p50);
  json.field("p95_seconds", outcome.load.p95);
  json.field("p99_seconds", outcome.load.p99);
  json.field("mean_seconds", outcome.load.meanLatency);
  json.key("machine_busy_seconds").beginArray();
  for (const double busy : outcome.load.machineBusySeconds) json.value(busy);
  json.endArray();
  // The phase's sliding-window SLO view (same samples, windowed path).
  // find(): a config-agnostic read — window() would demand the registering
  // config and throw on mismatch.
  const obs::SloWindow* window = obs::SloRegistry::global().find(outcome.name);
  const obs::SloSnapshot slo = window ? window->snapshot() : obs::SloSnapshot{};
  json.key("slo").beginObject();
  json.field("total", slo.total);
  json.field("errors", slo.errors);
  json.field("p50_seconds", slo.p50);
  json.field("p99_seconds", slo.p99);
  json.field("error_rate", slo.errorRate);
  json.field("burn_rate", slo.burnRate);
  json.endObject();
  json.endObject();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("docs", "40000", "documents in the corpus")
      .define("terms", "6000", "vocabulary size")
      .define("partitions", "24", "logical index partitions")
      .define("machines", "6", "regular machines")
      .define("exchange", "2", "borrowed exchange machines")
      .define("queries", "600", "queries per serving phase")
      .define("clients", "0", "client threads (0 = sized from qps*deadline)")
      .define("skew-sigma", "0.5", "lognormal sigma of partition sizes")
      .define("placement-skew", "1.6", "initial placement stickiness exponent")
      .define("stopwords", "20",
              "head term ranks excluded from queries (stopword pruning)")
      .define("cpu-load", "0.8", "CPU load factor of the stringent cluster")
      .define("mem-load", "0.8", "memory load factor")
      .define("service-fixed-us", "200", "emulated fixed service cost per task")
      .define("service-per-posting-us", "10",
              "emulated service cost per posting scanned")
      .define("deadline-ms", "100", "per-query deadline")
      .define("qps", "0",
              "offered arrival rate (0 = rho 0.9 at the greedy mapping's "
              "hottest machine)")
      .define("topk", "10", "results per query")
      .define("cache", "0", "result cache entries (0 = disabled)")
      .define("seed", "7", "random seed")
      .define("out", "BENCH_serve.json", "output record path")
      .define("check", "false",
              "exit nonzero unless SRA beats greedy p99 (ObservedLoad and "
              "SLO-window views both)")
      .define("tracing", "true",
              "request-scoped tracing during the serving phases")
      .define("obs-port", "-1",
              "HTTP introspection port (0 = ephemeral, -1 = off)")
      .define("overhead-reps", "4",
              "closed-loop trace replays per tracing-overhead arm (0 = skip "
              "the tracing on/off throughput comparison)");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("serve_bench");
    return 0;
  }

  const auto seed = flags.count<std::uint64_t>("seed");
  const auto partitions = flags.count("partitions");
  const auto regular = flags.count("machines");
  const auto exchange = flags.count("exchange");
  const std::size_t total = regular + exchange;
  const double serviceFixed = flags.real("service-fixed-us") * 1e-6;
  const double servicePerPosting = flags.real("service-per-posting-us") * 1e-6;
  const double deadlineSeconds = flags.real("deadline-ms") * 1e-3;

  // -- Corpus and skewed partitioned index --------------------------------
  SyntheticDocConfig docConfig;
  docConfig.seed = seed;
  docConfig.docCount = flags.count<std::uint32_t>("docs");
  docConfig.termCount = flags.count<std::uint32_t>("terms");
  WallTimer buildTimer;
  const auto documents = generateDocuments(docConfig);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<double> weights(partitions);
  for (double& w : weights) w = rng.lognormal(0.0, flags.real("skew-sigma"));
  const PartitionedIndex index(docConfig.termCount, documents, partitions, weights);
  std::printf("indexed %u docs into %zu partitions in %.2fs\n", docConfig.docCount,
              partitions, buildTimer.seconds());

  // -- Shared query trace and per-shard service demand --------------------
  // With pacing a shard's per-query service time is exactly
  //   fixed + perPosting * (postings the kernel scans there per query),
  // so the demand the solver plans on is *measured* by replaying the exact
  // trace through the serving kernel per shard (deterministic: the
  // broker's workers run the same kernel on the same inputs and scan the
  // same postings), so planned and measured load agree whatever the
  // kernel skips.
  // Two terms per query, drawn Zipf over the vocabulary *below* the pruned
  // stopword head (the corpus's top ranks have posting lists so long that
  // a single head-term query would dominate every machine's service time —
  // the per-query work variance real engines remove by pruning stopwords).
  const auto queryCount = flags.count("queries");
  const auto topK = flags.count<std::uint32_t>("topk");
  const auto stopwords =
      std::min(flags.count<std::uint64_t>("stopwords"),
               static_cast<std::uint64_t>(docConfig.termCount) - 1);
  const ZipfSampler termPick(docConfig.termCount - stopwords, 0.9);
  Rng traceRng(seed + 101);
  std::vector<std::vector<TermId>> trace(queryCount);
  for (auto& query : trace)
    for (std::size_t i = 0; i < 2; ++i)
      query.push_back(
          static_cast<TermId>(stopwords + termPick.sample(traceRng) - 1));
  std::vector<double> tracePostings(partitions, 0.0);
  {
    QueryScratch measureScratch;
    for (std::size_t s = 0; s < partitions; ++s) {
      ExecStats exec;
      for (const auto& query : trace)
        topKDisjunctiveInto(index.shard(s), query, topK, Bm25Params{},
                            measureScratch, &exec, &index.globalStats());
      tracePostings[s] = static_cast<double>(exec.postingsScanned);
    }
  }

  // -- Stringent cluster instance -----------------------------------------
  // CPU demand: emulated service seconds per query. Memory demand: the
  // measured compressed index size. Capacities sit at the configured load
  // factors — little headroom, the paper's environment — floored so the
  // heaviest shard (plus its transient copy) still fits on one machine.
  std::vector<Shard> shards(partitions);
  double totalCpu = 0.0, totalBytes = 0.0;
  for (ShardId s = 0; s < partitions; ++s) {
    shards[s].id = s;
    const double bytes = static_cast<double>(index.shard(s).indexBytes());
    const double perQuerySeconds =
        serviceFixed +
        servicePerPosting * tracePostings[s] / static_cast<double>(queryCount);
    shards[s].demand = ResourceVector{perQuerySeconds, bytes};
    shards[s].moveBytes = bytes;
    totalCpu += perQuerySeconds;
    totalBytes += bytes;
  }
  double maxShardCpu = 0.0, maxShardBytes = 0.0;
  for (const Shard& shard : shards) {
    maxShardCpu = std::max(maxShardCpu, shard.demand[0]);
    maxShardBytes = std::max(maxShardBytes, shard.demand[1]);
  }
  const double cpuCap =
      std::max(totalCpu / (flags.real("cpu-load") * static_cast<double>(regular)),
               maxShardCpu * 1.35);
  const double memCap =
      std::max(totalBytes / (flags.real("mem-load") * static_cast<double>(regular)),
               maxShardBytes * 2.1);
  std::vector<Machine> machines(total);
  for (std::size_t i = 0; i < total; ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector{cpuCap, memCap};
  }

  // Skewed-but-feasible initial placement (stickiness draw, best-fit
  // fallback) — the drifted state an operator would want to rebalance.
  std::vector<double> stickiness(regular);
  for (std::size_t i = 0; i < regular; ++i)
    stickiness[i] = std::pow(static_cast<double>(i + 1), -flags.real("placement-skew"));
  std::vector<ResourceVector> loads(regular, ResourceVector(2));
  std::vector<MachineId> initial(partitions, kNoMachine);
  for (ShardId s = 0; s < partitions; ++s) {
    MachineId chosen = kNoMachine;
    for (int attempt = 0; attempt < 16 && chosen == kNoMachine; ++attempt) {
      const std::size_t cand = rng.discrete(stickiness);
      if ((loads[cand] + shards[s].demand).fitsWithin(machines[cand].capacity))
        chosen = static_cast<MachineId>(cand);
    }
    if (chosen == kNoMachine) {
      double best = 0.0;
      for (std::size_t cand = 0; cand < regular; ++cand) {
        if (!(loads[cand] + shards[s].demand).fitsWithin(machines[cand].capacity))
          continue;
        const double util =
            (loads[cand] + shards[s].demand).utilizationAgainst(machines[cand].capacity);
        if (chosen == kNoMachine || util < best) {
          chosen = static_cast<MachineId>(cand);
          best = util;
        }
      }
    }
    if (chosen == kNoMachine) {
      std::fprintf(stderr, "serve_bench: no feasible skewed placement\n");
      return 1;
    }
    loads[chosen] += shards[s].demand;
    initial[s] = chosen;
  }
  const Instance instance(2, machines, shards, initial, exchange,
                          ResourceVector{0.3, 1.0});

  // Per-query service seconds on a mapping's hottest machine — the inverse
  // of the saturation rate the open-loop schedule is placed against.
  const auto hottestMachineWork = [&](const std::vector<MachineId>& mapping) {
    std::vector<double> work(total, 0.0);
    for (ShardId s = 0; s < partitions; ++s) work[mapping[s]] += shards[s].demand[0];
    double hot = 0.0;
    for (const double w : work) hot = std::max(hot, w);
    return hot;
  };

  // -- Rebalanced mappings -------------------------------------------------
  GreedyRebalancer greedy;
  const RebalanceResult greedyResult = greedy.rebalance(instance);

  SraConfig sraConfig;
  sraConfig.lns.seed = seed;
  sraConfig.lns.maxIterations = 8000;
  sraConfig.lns.timeBudgetSeconds = 3.0;
  sraConfig.polishSeconds = 0.5;
  Sra sra(sraConfig);
  const RebalanceResult sraResult = sra.rebalance(instance);

  const double hotInitial = hottestMachineWork(initial);
  const double hotGreedy = hottestMachineWork(greedyResult.finalMapping);
  const double hotSra = hottestMachineWork(sraResult.finalMapping);
  std::printf("hottest-machine service (ms/query): initial %.3f | greedy %.3f | "
              "sra %.3f\n",
              hotInitial * 1e3, hotGreedy * 1e3, hotSra * 1e3);
  if (hotSra >= hotGreedy)
    std::fprintf(stderr,
                 "warning: SRA did not out-balance greedy; phases will still "
                 "run but the comparison is moot\n");

  // Offered rate: put the greedy mapping's hottest machine at rho = 0.9.
  // Both mappings then serve in the stable region, where the queueing
  // delay curve rho/(1-rho) amplifies the balance gap into a latency gap:
  // greedy waits at rho 0.9 run several times longer than SRA's at its
  // proportionally lower rho.
  double qps = flags.real("qps");
  if (qps <= 0.0) qps = 0.9 / hotGreedy;
  std::printf("offered load %.1f qps -> rho_hot: initial %.3f | greedy %.3f | "
              "sra %.3f\n",
              qps, qps * hotInitial, qps * hotGreedy, qps * hotSra);

  serve::ServeConfig serveConfig;
  serveConfig.topK = flags.count<std::uint32_t>("topk");
  serveConfig.deadlineSeconds = deadlineSeconds;
  serveConfig.serviceFixedSeconds = serviceFixed;
  serveConfig.servicePerPostingSeconds = servicePerPosting;
  serveConfig.cacheCapacity = flags.count("cache");
  serveConfig.seed = seed;
  serveConfig.tracing = flags.boolean("tracing");
  // Every phase's samples must stay inside the sliding window for the
  // SLO-based check to see the whole phase.
  serveConfig.slo.windowSeconds = 600.0;
  serveConfig.slo.bucketSeconds = 5.0;
  serveConfig.slo.p99TargetSeconds = deadlineSeconds;
  if (serveConfig.tracing) obs::TraceRegistry::global().setEnabled(true);

  const auto obsPort = static_cast<int>(flags.integer("obs-port"));
  obs::IntrospectionSources sources;
  sources.brokerJson = [] { return liveBrokerJson(&serve::QueryBroker::debugJson); };
  sources.shardsJson = [] { return liveBrokerJson(&serve::QueryBroker::shardsJson); };
  sources.tenantsJson = [] {
    return liveBrokerJson(&serve::QueryBroker::tenantsJson);
  };
  const auto http = obs::serveIntrospection(obsPort, std::move(sources));
  if (http) {
    obs::TraceRegistry::global().setEnabled(true);
    std::printf("introspection plane on http://127.0.0.1:%d\n", http->port());
  }
  auto clients = flags.count("clients");
  if (clients == 0)
    clients = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(qps * deadlineSeconds * 1.5)));
  std::printf("%zu client threads, %zu queries/phase, deadline %.0f ms\n", clients,
              queryCount, deadlineSeconds * 1e3);

  // -- Serving phases ------------------------------------------------------
  // Phase 0 serves the *initial* drifted placement; its ObservedLoad feeds
  // the controller, closing the measured-demand loop for the third mapping.
  PhaseOutcome initialPhase =
      runPhase("initial", instance, initial, index, trace, serveConfig, clients, qps);
  initialPhase.rho = qps * hotInitial;

  // Observed demand straight from the broker: mean measured service
  // seconds per executed task (one task per query per partition), which is
  // per-query demand in exactly the instance's CPU units — no model, and
  // robust to the load shedding an overloaded phase performs.
  std::vector<double> observedCpu(partitions, 0.0);
  for (ShardId s = 0; s < partitions; ++s)
    observedCpu[s] =
        initialPhase.load.shardTasks[s] > 0
            ? initialPhase.load.shardBusySeconds[s] /
                  static_cast<double>(initialPhase.load.shardTasks[s])
            : shards[s].demand[0];
  ControllerConfig controllerConfig;
  controllerConfig.trigger.always = true;
  controllerConfig.sra = sraConfig;
  ClusterController controller(controllerConfig);
  const EpochReport observedEpoch =
      controller.step(withObservedCpuDemand(instance, observedCpu));
  const double hotObserved = hottestMachineWork(controller.mapping());
  std::printf("observed-load controller epoch: triggered=%d executed=%d "
              "hottest %.3f ms/query (rho %.3f)\n",
              observedEpoch.triggered, observedEpoch.executed, hotObserved * 1e3,
              qps * hotObserved);

  PhaseOutcome greedyPhase = runPhase("greedy", instance, greedyResult.finalMapping,
                                      index, trace, serveConfig, clients, qps);
  greedyPhase.rho = qps * hotGreedy;
  PhaseOutcome sraPhase = runPhase("sra", instance, sraResult.finalMapping, index,
                                   trace, serveConfig, clients, qps);
  sraPhase.rho = qps * hotSra;
  PhaseOutcome observedPhase = runPhase("sra_observed", instance, controller.mapping(),
                                        index, trace, serveConfig, clients, qps);
  observedPhase.rho = qps * hotObserved;

  // -- Tracing overhead: closed-loop throughput, tracing off vs on --------
  double qpsTracingOff = 0.0, qpsTracingOn = 0.0;
  const auto overheadReps = flags.count("overhead-reps");
  if (overheadReps > 0) {
    obs::TraceRegistry::global().setEnabled(true);
    // Untimed warmup so neither arm pays one-time costs (worker arenas,
    // page faults) and the comparison isolates the per-span price.
    closedLoopQps(instance, sraResult.finalMapping, index, trace, serveConfig,
                  clients, 1, true);
    // Interleave the arms rep-by-rep: a sequential off-then-on split lets
    // clock-frequency and thermal drift over the run masquerade as
    // tracing overhead.
    const auto repQueries = static_cast<double>(trace.size());
    double wallOff = 0.0, wallOn = 0.0;
    for (std::size_t rep = 0; rep < overheadReps; ++rep) {
      wallOff += repQueries / closedLoopQps(instance, sraResult.finalMapping,
                                            index, trace, serveConfig, clients,
                                            1, false);
      wallOn += repQueries / closedLoopQps(instance, sraResult.finalMapping,
                                           index, trace, serveConfig, clients,
                                           1, true);
    }
    const double totalQueries = repQueries * static_cast<double>(overheadReps);
    qpsTracingOff = wallOff > 0.0 ? totalQueries / wallOff : 0.0;
    qpsTracingOn = wallOn > 0.0 ? totalQueries / wallOn : 0.0;
    std::printf("tracing overhead (closed loop): off %.0f qps | on %.0f qps "
                "(%.1f%%)\n",
                qpsTracingOff, qpsTracingOn,
                qpsTracingOff > 0.0
                    ? (1.0 - qpsTracingOn / qpsTracingOff) * 100.0
                    : 0.0);
  }

  // -- Report --------------------------------------------------------------
  Table table({"mapping", "rho_hot", "complete", "p50 ms", "p95 ms", "p99 ms"});
  for (const PhaseOutcome* phase :
       {&initialPhase, &greedyPhase, &sraPhase, &observedPhase}) {
    table.addRow({phase->name, Table::num(phase->rho),
                  Table::pct(completeness(phase->load)),
                  Table::num(phase->load.p50 * 1e3), Table::num(phase->load.p95 * 1e3),
                  Table::num(phase->load.p99 * 1e3)});
  }
  table.print();

  JsonWriter json;
  json.beginObject();
  json.field("bench", "serve");
  json.field("seed", static_cast<std::int64_t>(seed));
  json.field("docs", flags.integer("docs"));
  json.field("partitions", static_cast<std::uint64_t>(partitions));
  json.field("machines", static_cast<std::uint64_t>(regular));
  json.field("exchange", static_cast<std::uint64_t>(exchange));
  json.field("clients", static_cast<std::uint64_t>(clients));
  json.field("queries_per_phase", static_cast<std::uint64_t>(queryCount));
  json.field("offered_qps", qps);
  json.field("deadline_seconds", deadlineSeconds);
  json.field("service_fixed_seconds", serviceFixed);
  json.field("service_per_posting_seconds", servicePerPosting);
  json.field("routing", "token");
  json.field("hot_ms_initial", hotInitial * 1e3);
  json.field("hot_ms_greedy", hotGreedy * 1e3);
  json.field("hot_ms_sra", hotSra * 1e3);
  json.field("hot_ms_sra_observed", hotObserved * 1e3);
  json.key("phases").beginObject();
  writePhase(json, initialPhase);
  writePhase(json, greedyPhase);
  writePhase(json, sraPhase);
  writePhase(json, observedPhase);
  json.endObject();
  json.field("sra_p99_beats_greedy", sraPhase.load.p99 < greedyPhase.load.p99);
  json.field("tracing", serveConfig.tracing);
  if (overheadReps > 0) {
    json.field("tracing_off_qps", qpsTracingOff);
    json.field("tracing_on_qps", qpsTracingOn);
    json.field("tracing_overhead_fraction",
               qpsTracingOff > 0.0 ? 1.0 - qpsTracingOn / qpsTracingOff : 0.0);
  }
  json.endObject();
  std::ofstream(flags.str("out")) << json.str() << "\n";
  std::printf("record written to %s\n", flags.str("out").c_str());

  if (flags.boolean("check")) {
    if (!(sraPhase.load.p99 < greedyPhase.load.p99)) {
      std::fprintf(stderr, "CHECK FAILED: sra p99 %.4fms !< greedy p99 %.4fms\n",
                   sraPhase.load.p99 * 1e3, greedyPhase.load.p99 * 1e3);
      return 1;
    }
    // Same gate through the windowed SLO path: the sliding-window
    // quantiles must tell the same story as the harvest-window ones.
    const obs::SloWindow* sraWindow = obs::SloRegistry::global().find("sra");
    const obs::SloWindow* greedyWindow = obs::SloRegistry::global().find("greedy");
    const obs::SloSnapshot sraSlo =
        sraWindow ? sraWindow->snapshot() : obs::SloSnapshot{};
    const obs::SloSnapshot greedySlo =
        greedyWindow ? greedyWindow->snapshot() : obs::SloSnapshot{};
    if (sraSlo.total == 0 || greedySlo.total == 0 ||
        !(sraSlo.p99 < greedySlo.p99)) {
      std::fprintf(stderr,
                   "CHECK FAILED: SLO window sra p99 %.4fms !< greedy p99 "
                   "%.4fms (samples %llu vs %llu)\n",
                   sraSlo.p99 * 1e3, greedySlo.p99 * 1e3,
                   static_cast<unsigned long long>(sraSlo.total),
                   static_cast<unsigned long long>(greedySlo.total));
      return 1;
    }
  }
  return 0;
}
