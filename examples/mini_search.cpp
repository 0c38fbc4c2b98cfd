// Mini search engine: the materialized index substrate end to end.
//
// Builds a synthetic corpus, indexes it whole and document-partitioned,
// runs BM25 queries both ways, and shows that scatter-gather with global
// statistics returns identical results while per-shard work tracks each
// shard's corpus share — the fact the load-balancing layer builds on.
//
//   ./mini_search [--docs N] [--terms V] [--shards S]
//
// With --serve the partitions are additionally hosted on a small simulated
// cluster behind the concurrent QueryBroker (src/serve/): client threads
// fire the same queries at it, shard tasks route by token admission to the
// hosting machine with the most free slots, results come back through the
// sharded LRU cache, and the run ends with per-machine utilization and
// client-side latency percentiles.
//
//   ./mini_search --serve [--machines M] [--clients C] [--cache N]
//
// The partitions can also be persisted as on-disk segment files and served
// back zero-copy via mmap (the broker's cursors then iterate directly over
// the mapped bytes):
//
//   ./mini_search --write-segments /tmp/resex-segments
//   ./mini_search --segments /tmp/resex-segments --serve

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <thread>

#include "cluster/instance.hpp"
#include "index/partition.hpp"
#include "obs/context.hpp"
#include "obs/http.hpp"
#include "serve/broker.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/zipf.hpp"

namespace {

/// Hosts the partitions on `machineCount` machines (round-robin, uniform
/// capacity) and replays the trace from `clientCount` concurrent client
/// threads. Prints what the broker observed.
void serveDemo(const resex::PartitionedIndex& index,
               const std::vector<std::vector<resex::TermId>>& trace,
               std::size_t machineCount, std::size_t clientCount,
               std::size_t cacheEntries, double deadlineMs, std::uint64_t seed,
               int obsPort, double serveSeconds) {
  using namespace resex;
  const std::size_t partitions = index.shardCount();
  machineCount = std::min(machineCount, partitions);

  std::vector<Shard> shards(partitions);
  std::vector<MachineId> mapping(partitions);
  double totalBytes = 0.0;
  for (ShardId s = 0; s < partitions; ++s) {
    shards[s].id = s;
    const double bytes = static_cast<double>(index.shard(s).indexBytes());
    shards[s].demand = ResourceVector{index.docFraction(s), bytes};
    shards[s].moveBytes = bytes;
    totalBytes += bytes;
    mapping[s] = static_cast<MachineId>(s % machineCount);
  }
  std::vector<Machine> machines(machineCount);
  for (std::size_t m = 0; m < machineCount; ++m) {
    machines[m].id = static_cast<MachineId>(m);
    machines[m].capacity = ResourceVector{1.0, totalBytes};
  }
  const Instance instance(2, machines, shards, mapping, 0, ResourceVector{0.5, 1.0});

  serve::ServeConfig config;
  config.topK = 10;
  config.deadlineSeconds = deadlineMs * 1e-3;
  config.cacheCapacity = cacheEntries;
  config.seed = seed;
  if (obsPort >= 0) {
    // The introspection plane only earns its keep with live data behind
    // it: turn on request-scoped tracing and SLO tracking for the demo.
    obs::TraceRegistry::global().setEnabled(true);
    config.tracing = true;
    config.sloClass = "interactive";
  }
  serve::QueryBroker broker(instance, mapping, index, config);

  obs::IntrospectionSources sources;
  sources.brokerJson = [&broker] { return broker.debugJson(); };
  sources.shardsJson = [&broker] { return broker.shardsJson(); };
  sources.tenantsJson = [&broker] { return broker.tenantsJson(); };
  const auto http = obs::serveIntrospection(obsPort, std::move(sources));
  if (http)
    std::printf("\nintrospection plane on http://127.0.0.1:%d "
                "(/metrics /traces /debug/broker /debug/shards /debug/slo "
                "/debug/tenants)\n",
                http->port());

  std::printf("\n-- serve mode: %zu partitions on %zu machines, %zu clients, "
              "%.0f ms deadline, cache %zu --\n",
              partitions, machineCount, clientCount, deadlineMs, cacheEntries);
  // With --serve-seconds the clients replay the trace in a loop for that
  // long (so the HTTP endpoints can be explored against live traffic);
  // otherwise a single pass through the trace.
  const auto stopAt = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(serveSeconds));
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> complete{0};
  std::vector<std::thread> clients;
  clients.reserve(clientCount);
  for (std::size_t c = 0; c < clientCount; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= trace.size() &&
            (serveSeconds <= 0.0 || std::chrono::steady_clock::now() >= stopAt))
          break;
        if (broker.execute(trace[i % trace.size()]).complete)
          complete.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const serve::ObservedLoad load = broker.takeObservedLoad();

  Table table({"machine", "workers", "tasks", "busy-fraction", "queue-depth"});
  for (std::size_t m = 0; m < broker.machineCount(); ++m) {
    table.addRow({Table::num(m), Table::num(broker.workerCount(m)),
                  Table::num(load.machineTasks[m]),
                  Table::num(load.machineBusyFraction(m, broker.workerCount(m)), 3),
                  Table::num(load.machineQueueDepth[m])});
  }
  table.print();
  const serve::CacheStats cache = broker.cacheStats();
  std::printf("served %llu queries (%llu complete) at %.0f qps | "
              "latency ms p50 %.2f p95 %.2f p99 %.2f | cache hits %llu / "
              "lookups %llu\n",
              static_cast<unsigned long long>(load.queries),
              static_cast<unsigned long long>(complete.load()),
              load.throughputQps(), load.p50 * 1e3, load.p95 * 1e3, load.p99 * 1e3,
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.hits + cache.misses));
  std::printf("query kernel: %llu blocks decoded, %llu skipped undecoded "
              "(skip ratio %.1f%%), %llu heap-threshold prunes\n",
              static_cast<unsigned long long>(load.blocksDecoded),
              static_cast<unsigned long long>(load.blocksSkipped),
              load.blockSkipRatio() * 100.0,
              static_cast<unsigned long long>(load.heapThresholdPrunes));
}

}  // namespace

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("docs", "20000", "documents in the corpus")
      .define("terms", "5000", "vocabulary size")
      .define("shards", "6", "index partitions")
      .define("queries", "200", "queries to run")
      .define("serve", "false", "also serve the trace through the QueryBroker")
      .define("machines", "3", "serve mode: simulated machines")
      .define("clients", "4", "serve mode: concurrent client threads")
      .define("cache", "256", "serve mode: result cache entries (0 = off)")
      .define("deadline-ms", "50", "serve mode: per-query deadline")
      .define("obs-port", "-1",
              "serve mode: HTTP introspection port (0 = ephemeral, -1 = off); "
              "enables request-scoped tracing and SLO tracking")
      .define("serve-seconds", "0",
              "serve mode: replay the trace in a loop for this long "
              "(0 = single pass; pair with --obs-port to leave time to curl)")
      .define("write-segments", "",
              "persist the partitioned index as segment files (shard-NNNN.seg) "
              "into this directory")
      .define("segments", "",
              "load the partitions from segment files in this directory "
              "(written by --write-segments with matching --docs/--terms/"
              "--shards/--seed) and serve them zero-copy from mmap")
      .define("seed", "42", "random seed");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("mini_search");
    return 0;
  }

  resex::SyntheticDocConfig config;
  config.seed = static_cast<std::uint64_t>(flags.integer("seed"));
  config.docCount = static_cast<std::uint32_t>(flags.integer("docs"));
  config.termCount = static_cast<std::uint32_t>(flags.integer("terms"));

  resex::WallTimer timer;
  const auto docs = resex::generateDocuments(config);
  const resex::InvertedIndex whole(config.termCount, docs);
  const auto shardCount = static_cast<std::size_t>(flags.integer("shards"));
  const std::string segmentDir = flags.str("segments");
  // From documents, or reopened zero-copy from segment files on disk —
  // either way the same PartitionedIndex surface (and, below, the same
  // scatter-gather results as the freshly built whole index). A missing
  // or corrupt segment directory is an expected operator error: report
  // it and exit instead of letting the exception terminate.
  const resex::PartitionedIndex part = [&] {
    try {
      return segmentDir.empty()
                 ? resex::PartitionedIndex(config.termCount, docs, shardCount)
                 : resex::PartitionedIndex::fromSegmentDir(segmentDir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mini_search: cannot load segments: %s\n", e.what());
      std::exit(1);
    }
  }();
  std::printf("corpus: %u docs, %u terms, %zu postings, %.2f MB compressed "
              "(built in %.2fs)\n",
              config.docCount, config.termCount, whole.totalPostings(),
              static_cast<double>(whole.indexBytes()) / 1e6, timer.seconds());
  if (!segmentDir.empty())
    std::printf("partitions: %zu shards mmap'd from %s\n",
                part.shardCount(), segmentDir.c_str());

  if (const std::string writeDir = flags.str("write-segments");
      !writeDir.empty()) {
    resex::WallTimer writeTimer;
    const auto paths = part.writeSegmentDir(writeDir);
    std::uint64_t totalBytes = 0;
    for (const auto& p : paths)
      totalBytes += std::filesystem::file_size(p);
    std::printf("segments: wrote %zu shard files (%.2f MB) to %s in %.2fs\n",
                paths.size(), static_cast<double>(totalBytes) / 1e6,
                writeDir.c_str(), writeTimer.seconds());
  }
  std::printf("\n");

  // A couple of demo queries with visible results.
  for (const std::vector<resex::TermId>& query :
       {std::vector<resex::TermId>{0, 7}, {25, 3, 110}}) {
    const auto results = resex::topKDisjunctive(whole, query, 5, resex::Bm25Params{});
    std::printf("top-5 for query {");
    for (std::size_t i = 0; i < query.size(); ++i)
      std::printf("%s t%u", i ? "," : "", query[i]);
    std::printf(" }:");
    for (const auto& r : results) std::printf("  d%u(%.3f)", r.doc, r.score);
    std::printf("\n");
  }

  // Bulk run: whole-index vs partitioned results must agree; collect
  // per-shard work.
  resex::Rng rng(config.seed + 1);
  const resex::ZipfSampler termPick(config.termCount, 0.9);
  std::vector<resex::ExecStats> shardStats(shardCount);
  std::size_t agree = 0;
  const auto queryCount = static_cast<std::size_t>(flags.integer("queries"));
  std::vector<std::vector<resex::TermId>> trace(queryCount);
  for (std::size_t q = 0; q < queryCount; ++q) {
    std::vector<resex::TermId>& query = trace[q];
    const std::size_t len = 1 + rng.below(3);
    for (std::size_t i = 0; i < len; ++i)
      query.push_back(static_cast<resex::TermId>(termPick.sample(rng) - 1));
    const auto fromShards = part.searchTopK(query, 10, {}, &shardStats);
    const auto reference = resex::topKDisjunctive(whole, query, 10, {});
    bool same = fromShards.size() == reference.size();
    for (std::size_t i = 0; same && i < reference.size(); ++i)
      same = fromShards[i].doc == reference[i].doc;
    agree += same;
  }
  std::printf("\nscatter-gather agreement with whole-index search: %zu/%zu\n\n",
              agree, queryCount);

  resex::Table table({"shard", "docs", "doc-fraction", "postings-scanned",
                      "scanned/fraction"});
  double totalScanned = 0.0;
  for (const auto& s : shardStats) totalScanned += static_cast<double>(s.postingsScanned);
  for (std::size_t i = 0; i < shardCount; ++i) {
    const double share = static_cast<double>(shardStats[i].postingsScanned);
    table.addRow({resex::Table::num(i), resex::Table::num(part.shard(i).documentCount()),
                  resex::Table::num(part.docFraction(i), 4),
                  resex::Table::num(shardStats[i].postingsScanned),
                  resex::Table::num(share / totalScanned / part.docFraction(i), 3)});
  }
  table.print();
  std::printf("\n(scanned/fraction ~ 1.0 everywhere: per-shard query work is "
              "proportional to corpus share, the premise of the cost model)\n");

  if (flags.boolean("serve")) {
    serveDemo(part, trace, static_cast<std::size_t>(flags.integer("machines")),
              static_cast<std::size_t>(flags.integer("clients")),
              static_cast<std::size_t>(flags.integer("cache")),
              flags.real("deadline-ms"), config.seed,
              static_cast<int>(flags.integer("obs-port")),
              flags.real("serve-seconds"));
  }
  return 0;
}
