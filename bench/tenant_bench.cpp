// tenant_bench — multi-tenant isolation under burst: a batch tenant
// offered at 10x its fair share must not move the interactive tenant's
// tail, and must be turned away at *admission* (token caps), not by
// queue-poisoning deadline sheds.
//
// Design. One small skewed partitioned index served by the multi-threaded
// QueryBroker with two tenants, with the same two reproducibility levers as
// serve_bench: deterministic service pacing (each task holds its machine
// busy for fixed + per-posting seconds) and open-loop arrivals (clients
// replay a shared trace on a fixed schedule). Two tenants:
//
//   * interactive — weight 16, guaranteed 60% of tokens, no burst
//     headroom beyond its weighted share. Offered at rho 0.6 of the
//     cluster's saturation rate in both phases.
//   * batch — weight 1, guaranteed 5%, burstLimit 3.0. Idle in the
//     baseline phase; offered at 10x its nominal 10% share in the burst
//     phase (rho 1.0 on its own — the cluster is oversubscribed 1.6x).
//
// The token arithmetic is sized so outcomes are structural, not lucky:
// every query needs `partitions` tokens (one per fan-out task). With 4
// machines x (1 worker + 35 queued) = 144 tokens total, batch's cap is
// max(.05*144, 3.0*144/17) = 25.4 tokens — exactly one in-flight query;
// its second concurrent query is rejected over-share at admission. The
// interactive cap (135.5) exceeds its client count times fan-out (5*24 =
// 120), so interactive can never be rejected, and per-machine binding
// (30 interactive + 6 batch <= 36) can never fail. Inside the queues, SFQ
// weights 16:1 keep batch's bounded backlog behind interactive work.
//
// Each phase pair (solo, burst) is repeated --reps times and the gate
// compares the *minimum* p99 across reps: OS scheduler noise — the
// dominant tail source when many emulated machines share one physical
// core — is strictly additive, so the min over repetitions estimates the
// true quantile where any single run may carry a multi-ms wakeup spike.
//
// Emits BENCH_tenant.json; --check exits nonzero unless the interactive
// p99 under burst stays within --p99-budget (1.25x) of its no-burst
// baseline, batch shows admission rejections, interactive sheds nothing,
// and /debug/tenants-style JSON reports both tenants' heat and SLOs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

/// One tenant's open-loop arrival stream within a phase.
struct Stream {
  serve::TenantId tenant = 0;
  double qps = 0.0;
  std::size_t queries = 0;
  std::size_t clients = 0;
};

struct PhaseOutcome {
  std::string name;
  serve::ObservedLoad load;
  double wallSeconds = 0.0;
  /// The broker's /debug/tenants payload, captured while traffic was live.
  std::string tenantsJson;
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

/// `base` with per-phase SLO classes ("<phase>.<tenant>"), which keep the
/// global registry's windows distinct between the baseline and burst
/// phases.
serve::ServeConfig phaseConfig(const std::string& phase,
                               const serve::ServeConfig& base) {
  serve::ServeConfig config = base;
  for (serve::TenantSpec& tenant : config.tenants)
    tenant.sloClass = phase + "." + tenant.name;
  return config;
}

/// Replays the shared trace through a two-tenant broker: each stream's
/// clients pull query i from a per-stream cursor and issue it at
/// phaseStart + i/qps (immediately when behind).
PhaseOutcome runPhase(const std::string& name, const Instance& instance,
                      const std::vector<MachineId>& mapping,
                      const PartitionedIndex& index,
                      const std::vector<std::vector<TermId>>& trace,
                      const serve::ServeConfig& baseConfig,
                      const std::vector<Stream>& streams) {
  serve::QueryBroker broker(instance, mapping, index, phaseConfig(name, baseConfig));
  publishLiveBroker(&broker);
  WallTimer timer;
  std::vector<bench::OpenLoopStream> loops(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    loops[s].offsets = bench::arrivalOffsets(streams[s].queries, streams[s].qps);
    loops[s].clients = streams[s].clients;
  }
  bench::replayOpenLoop(loops, [&](std::size_t s, std::size_t i) {
    broker.execute(trace[i % trace.size()], streams[s].tenant);
  });
  PhaseOutcome outcome;
  outcome.name = name;
  outcome.wallSeconds = timer.seconds();
  outcome.tenantsJson = broker.tenantsJson();
  outcome.load = broker.takeObservedLoad();
  publishLiveBroker(nullptr);
  return outcome;
}

void writeTenant(JsonWriter& json, const std::string& phase,
                 const serve::ObservedLoad::TenantLoad& tenant) {
  json.key(tenant.name).beginObject();
  json.field("queries", tenant.queries);
  json.field("cache_hits", tenant.cacheHits);
  json.field("rejected_over_share", tenant.rejectedOverShare);
  json.field("rejected_no_token", tenant.rejectedNoToken);
  json.field("expired_queries", tenant.expiredQueries);
  json.field("shed_tasks", tenant.shedTasks);
  json.field("tasks", tenant.tasks);
  json.field("busy_seconds", tenant.busySeconds);
  json.field("p50_seconds", tenant.p50);
  json.field("p95_seconds", tenant.p95);
  json.field("p99_seconds", tenant.p99);
  json.field("mean_seconds", tenant.meanLatency);
  // The tenant's sliding-window view for this phase (rejections land here
  // as SLO errors; the latency quantiles above cover served queries only).
  const obs::SloWindow* window =
      obs::SloRegistry::global().find(phase + "." + tenant.name);
  const obs::SloSnapshot slo = window ? window->snapshot() : obs::SloSnapshot{};
  json.key("slo").beginObject();
  json.field("total", slo.total);
  json.field("errors", slo.errors);
  json.field("error_rate", slo.errorRate);
  json.field("burn_rate", slo.burnRate);
  json.field("p99_seconds", slo.p99);
  json.endObject();
  json.endObject();
}

const serve::ObservedLoad::TenantLoad* tenantLoad(const PhaseOutcome& phase,
                                                  const std::string& name) {
  for (const auto& tenant : phase.load.tenants)
    if (tenant.name == name) return &tenant;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("docs", "12000", "documents in the corpus")
      .define("terms", "3000", "vocabulary size")
      .define("partitions", "24", "logical index partitions")
      .define("machines", "4", "machines (round-robin shard placement)")
      .define("queries", "400", "distinct queries in the shared trace pool")
      .define("duration", "5", "seconds of offered traffic per phase")
      .define("reps", "3",
              "repetitions of the (solo, burst) phase pair; gates compare "
              "min p99 across reps (scheduler noise is additive)")
      .define("stopwords", "20",
              "head term ranks excluded from queries (stopword pruning)")
      .define("service-fixed-us", "800", "emulated fixed service cost per task")
      .define("service-per-posting-us", "2",
              "emulated service cost per posting scanned")
      // Two orders of magnitude above the ~8 ms tails being measured: the
      // deadline is a pathology backstop, not the isolation signal. A
      // tight deadline makes an OS stall on a shared core cascade —
      // clients unblock at expiry while their unshed tasks still hold
      // tokens — and that cascade is host noise, not tenancy.
      .define("deadline-ms", "1000", "per-query deadline")
      .define("interactive-rho", "0.6",
              "interactive offered load vs cluster saturation (both phases)")
      .define("batch-share", "0.1", "batch tenant's nominal capacity share")
      .define("batch-burst-x", "10",
              "burst-phase batch rate as a multiple of its nominal share")
      .define("interactive-clients", "5",
              "interactive client threads (bounds its in-flight tokens "
              "below the tenant cap — see header comment)")
      .define("batch-clients", "6", "batch client threads")
      .define("topk", "10", "results per query")
      .define("seed", "7", "random seed")
      .define("out", "BENCH_tenant.json", "output record path")
      .define("p99-budget", "1.25",
              "check gate: burst-phase interactive p99 budget as a multiple "
              "of the no-burst baseline")
      .define("check", "false",
              "exit nonzero unless isolation holds (p99 budget, admission "
              "rejections, zero interactive sheds, tenants JSON populated)")
      .define("obs-port", "-1",
              "HTTP introspection port (0 = ephemeral, -1 = off)");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("tenant_bench");
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const auto partitions = static_cast<std::size_t>(flags.integer("partitions"));
  const auto machineCount = static_cast<std::size_t>(flags.integer("machines"));
  const double serviceFixed = flags.real("service-fixed-us") * 1e-6;
  const double servicePerPosting = flags.real("service-per-posting-us") * 1e-6;
  const double deadlineSeconds = flags.real("deadline-ms") * 1e-3;

  // -- Corpus, skewed partitioned index, shared trace ----------------------
  // Same recipe as serve_bench: Zipf term draws below a pruned stopword
  // head, per-shard service demand measured by replaying the exact trace
  // through the block-max kernel (the workers will scan the same postings).
  SyntheticDocConfig docConfig;
  docConfig.seed = seed;
  docConfig.docCount = static_cast<std::uint32_t>(flags.integer("docs"));
  docConfig.termCount = static_cast<std::uint32_t>(flags.integer("terms"));
  WallTimer buildTimer;
  const auto documents = generateDocuments(docConfig);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<double> weights(partitions);
  for (double& w : weights) w = rng.lognormal(0.0, 0.5);
  const PartitionedIndex index(docConfig.termCount, documents, partitions, weights);
  std::printf("indexed %u docs into %zu partitions in %.2fs\n", docConfig.docCount,
              partitions, buildTimer.seconds());

  const auto queryCount = static_cast<std::size_t>(flags.integer("queries"));
  const auto topK = static_cast<std::uint32_t>(flags.integer("topk"));
  const auto stopwords =
      std::min(static_cast<std::uint64_t>(flags.integer("stopwords")),
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

  // -- Uniform instance, round-robin placement ------------------------------
  // Placement quality is serve_bench's subject, not ours: a balanced
  // round-robin mapping on homogeneous machines keeps the isolation
  // measurement about tenancy alone.
  std::vector<Shard> shards(partitions);
  double totalCpu = 0.0;
  for (ShardId s = 0; s < partitions; ++s) {
    shards[s].id = s;
    const double bytes = static_cast<double>(index.shard(s).indexBytes());
    shards[s].demand = ResourceVector{
        serviceFixed + servicePerPosting * tracePostings[s] /
                           static_cast<double>(queryCount),
        bytes};
    shards[s].moveBytes = bytes;
    totalCpu += shards[s].demand[0];
  }
  std::vector<Machine> machines(machineCount);
  for (std::size_t i = 0; i < machineCount; ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector{totalCpu, 1e18};  // generous
  }
  std::vector<MachineId> mapping(partitions);
  for (ShardId s = 0; s < partitions; ++s)
    mapping[s] = static_cast<MachineId>(s % machineCount);
  const Instance instance(2, machines, shards, mapping, 0,
                          ResourceVector{0.3, 1.0});

  // Per-query service seconds on the hottest machine — the inverse of the
  // saturation rate both tenants' offered schedules are placed against.
  std::vector<double> perMachine(machineCount, 0.0);
  for (ShardId s = 0; s < partitions; ++s) perMachine[mapping[s]] += shards[s].demand[0];
  const double hot = *std::max_element(perMachine.begin(), perMachine.end());

  const double interactiveQps = flags.real("interactive-rho") / hot;
  const double batchFairQps = flags.real("batch-share") / hot;
  const double batchQps = flags.real("batch-burst-x") * batchFairQps;
  const double duration = flags.real("duration");
  std::printf("hottest machine %.3f ms/query -> interactive %.0f qps (rho "
              "%.2f), batch burst %.0f qps (%.0fx its %.0f-qps share)\n",
              hot * 1e3, interactiveQps, flags.real("interactive-rho"), batchQps,
              flags.real("batch-burst-x"), batchFairQps);

  // -- Two-tenant serving config --------------------------------------------
  serve::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.weight = 16.0;
  interactive.guaranteedShare = 0.6;
  interactive.burstLimit = 1.0;
  serve::TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.guaranteedShare = 0.05;
  batch.burstLimit = 3.0;  // cap 3*(1/17) of tokens: one in-flight query
  serve::ServeConfig serveConfig;
  serveConfig.topK = topK;
  serveConfig.deadlineSeconds = deadlineSeconds;
  serveConfig.serviceFixedSeconds = serviceFixed;
  serveConfig.servicePerPostingSeconds = servicePerPosting;
  serveConfig.seed = seed;
  serveConfig.tenants = {interactive, batch};
  // 35 queued tasks beyond each machine's one worker: 36 tokens per
  // machine, 144 in all (see the token arithmetic in the header comment).
  serveConfig.queueCapacity = 35;
  // Every phase's samples must stay inside the sliding window for the
  // per-tenant SLO views to see the whole phase.
  serveConfig.slo.windowSeconds = 600.0;
  serveConfig.slo.bucketSeconds = 5.0;
  for (serve::TenantSpec& tenant : serveConfig.tenants)
    tenant.slo = serveConfig.slo;
  serveConfig.tenants[0].slo.p99TargetSeconds = deadlineSeconds;

  // Token arithmetic sanity: a query needs one token per partition, so a
  // cap below the fan-out admits nothing at all (a config bug, not a
  // throttling result). The totals come from a broker's own bank, built
  // with the first phase's config so it registers no extra SLO window.
  {
    const serve::QueryBroker probe(instance, mapping, index,
                                   phaseConfig("solo", serveConfig));
    const serve::TokenBank& bank = *probe.tokenBank();
    const double batchCap = bank.cap(1);
    std::printf("tokens %llu | batch cap %.1f | interactive cap %.1f\n",
                static_cast<unsigned long long>(bank.totalTokens()), batchCap,
                bank.cap(0));
    if (batchCap < static_cast<double>(partitions)) {
      std::fprintf(stderr,
                   "tenant_bench: batch cap %.1f tokens < %zu-way fan-out — "
                   "no batch query could ever be admitted\n",
                   batchCap, partitions);
      return 1;
    }
  }

  const auto obsPort = static_cast<int>(flags.integer("obs-port"));
  obs::IntrospectionSources sources;
  sources.brokerJson = [] { return liveBrokerJson(&serve::QueryBroker::debugJson); };
  sources.shardsJson = [] { return liveBrokerJson(&serve::QueryBroker::shardsJson); };
  sources.tenantsJson = [] {
    return liveBrokerJson(&serve::QueryBroker::tenantsJson);
  };
  const auto http = obs::serveIntrospection(obsPort, std::move(sources));
  if (http)
    std::printf("introspection plane on http://127.0.0.1:%d\n", http->port());

  // -- Phases ---------------------------------------------------------------
  Stream interactiveStream;
  interactiveStream.tenant = 0;
  interactiveStream.qps = interactiveQps;
  interactiveStream.queries =
      static_cast<std::size_t>(std::ceil(interactiveQps * duration));
  interactiveStream.clients =
      static_cast<std::size_t>(flags.integer("interactive-clients"));
  Stream batchStream;
  batchStream.tenant = 1;
  batchStream.qps = batchQps;
  batchStream.queries = static_cast<std::size_t>(std::ceil(batchQps * duration));
  batchStream.clients = static_cast<std::size_t>(flags.integer("batch-clients"));

  const auto reps = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.integer("reps")));
  std::vector<PhaseOutcome> solos, bursts;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    solos.push_back(runPhase("solo", instance, mapping, index, trace,
                             serveConfig, {interactiveStream}));
    bursts.push_back(runPhase("burst", instance, mapping, index, trace,
                              serveConfig, {interactiveStream, batchStream}));
  }

  // -- Report ---------------------------------------------------------------
  Table table({"rep", "phase", "tenant", "queries", "rejected", "sheds",
               "p50 ms", "p99 ms"});
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const PhaseOutcome* phase : {&solos[rep], &bursts[rep]}) {
      for (const auto& tenant : phase->load.tenants) {
        if (tenant.queries == 0) continue;
        table.addRow({Table::num(static_cast<double>(rep)), phase->name,
                      tenant.name,
                      Table::num(static_cast<double>(tenant.queries)),
                      Table::num(static_cast<double>(tenant.rejectedOverShare +
                                                     tenant.rejectedNoToken)),
                      Table::num(static_cast<double>(tenant.shedTasks)),
                      Table::num(tenant.p50 * 1e3),
                      Table::num(tenant.p99 * 1e3)});
      }
    }
  }
  table.print();

  // Min p99 over reps per phase (jitter is additive — see header comment);
  // counters sum over reps.
  double soloP99 = 0.0, burstP99 = 0.0;
  std::uint64_t batchOverShare = 0, batchNoToken = 0;
  std::uint64_t interactiveSheds = 0, interactiveExpired = 0;
  std::uint64_t interactiveRejected = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto* soloInteractive = tenantLoad(solos[rep], "interactive");
    const auto* burstInteractive = tenantLoad(bursts[rep], "interactive");
    const auto* burstBatch = tenantLoad(bursts[rep], "batch");
    if (!soloInteractive || !burstInteractive || !burstBatch) {
      std::fprintf(stderr, "tenant_bench: ObservedLoad missing tenant rows\n");
      return 1;
    }
    soloP99 = rep == 0 ? soloInteractive->p99
                       : std::min(soloP99, soloInteractive->p99);
    burstP99 = rep == 0 ? burstInteractive->p99
                        : std::min(burstP99, burstInteractive->p99);
    batchOverShare += burstBatch->rejectedOverShare;
    batchNoToken += burstBatch->rejectedNoToken;
    interactiveSheds += burstInteractive->shedTasks;
    interactiveExpired += burstInteractive->expiredQueries;
    interactiveRejected += burstInteractive->rejectedOverShare +
                           burstInteractive->rejectedNoToken +
                           soloInteractive->rejectedOverShare +
                           soloInteractive->rejectedNoToken;
  }
  const double p99Budget = flags.real("p99-budget");
  const double p99Ratio = soloP99 > 0.0 ? burstP99 / soloP99 : 0.0;
  const std::string& lastBurstJson = bursts.back().tenantsJson;
  const bool tenantsJsonOk =
      lastBurstJson.find("\"interactive\"") != std::string::npos &&
      lastBurstJson.find("\"batch\"") != std::string::npos &&
      lastBurstJson.find("\"slo\"") != std::string::npos &&
      lastBurstJson.find("\"held_tokens\"") != std::string::npos;

  JsonWriter json;
  json.beginObject();
  json.field("bench", "tenant");
  json.field("seed", static_cast<std::int64_t>(seed));
  json.field("docs", flags.integer("docs"));
  json.field("partitions", static_cast<std::uint64_t>(partitions));
  json.field("machines", static_cast<std::uint64_t>(machineCount));
  json.field("hot_ms", hot * 1e3);
  json.field("interactive_qps", interactiveQps);
  json.field("batch_burst_qps", batchQps);
  json.field("batch_fair_qps", batchFairQps);
  json.field("duration_seconds", duration);
  json.field("deadline_seconds", deadlineSeconds);
  json.field("queue_capacity", static_cast<std::uint64_t>(serveConfig.queueCapacity));
  json.field("reps", static_cast<std::uint64_t>(reps));
  // Per-rep phase records; the "slo" objects inside read the global
  // sliding windows, which accumulate across reps of the same phase.
  json.key("runs").beginArray();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    json.beginObject();
    for (const PhaseOutcome* phase : {&solos[rep], &bursts[rep]}) {
      json.key(phase->name).beginObject();
      json.field("wall_seconds", phase->wallSeconds);
      for (const auto& tenant : phase->load.tenants)
        writeTenant(json, phase->name, tenant);
      json.endObject();
    }
    json.endObject();
  }
  json.endArray();
  json.field("interactive_solo_p99_seconds", soloP99);
  json.field("interactive_burst_p99_seconds", burstP99);
  json.field("interactive_p99_ratio", p99Ratio);
  json.field("p99_budget", p99Budget);
  json.field("batch_admission_rejections", batchOverShare + batchNoToken);
  json.field("batch_rejected_over_share", batchOverShare);
  json.field("interactive_shed_tasks", interactiveSheds);
  json.field("tenants_json_ok", tenantsJsonOk);
  json.endObject();
  std::ofstream(flags.str("out")) << json.str() << "\n";
  std::printf("record written to %s\n", flags.str("out").c_str());

  if (flags.boolean("check")) {
    bool ok = true;
    if (soloP99 <= 0.0 || p99Ratio > p99Budget) {
      std::fprintf(stderr,
                   "CHECK FAILED: interactive p99 under burst %.3fms vs solo "
                   "%.3fms (min over %zu reps; ratio %.3f > budget %.2f)\n",
                   burstP99 * 1e3, soloP99 * 1e3, reps, p99Ratio, p99Budget);
      ok = false;
    }
    if (batchOverShare == 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: batch at %.0fx share saw no over-share "
                   "admission rejections\n",
                   flags.real("batch-burst-x"));
      ok = false;
    }
    if (interactiveSheds != 0 || interactiveExpired != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: interactive lost work under burst (%llu "
                   "sheds, %llu expired) — batch poisoned the queues\n",
                   static_cast<unsigned long long>(interactiveSheds),
                   static_cast<unsigned long long>(interactiveExpired));
      ok = false;
    }
    if (interactiveRejected != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: in-share interactive tenant was rejected at "
                   "admission\n");
      ok = false;
    }
    if (!tenantsJsonOk) {
      std::fprintf(stderr,
                   "CHECK FAILED: /debug/tenants JSON missing tenant heat or "
                   "SLO fields\n");
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK OK: p99 ratio %.3f <= %.2f, batch rejections %llu, "
                "interactive sheds 0\n",
                p99Ratio, p99Budget,
                static_cast<unsigned long long>(batchOverShare));
  }
  return 0;
}
