// resex_serve: the broker as a served system — segments in, sockets out.
//
// Wires the whole serving stack together: a PartitionedIndex (loaded from
// an on-disk segment directory, or built synthetically), a simulated
// cluster instance hosting its partitions, the QueryBroker
// (scheduling + execution), a SearchService (frame ⇄ broker mapping), a
// net::Server (transport: epoll shards, pipelined binary frames), and the
// obs HTTP introspection plane. Clients speak the length-prefixed frame
// protocol of src/net/frame.hpp — resex_query is the matching CLI client,
// net_bench the load generator.
//
//   ./resex_serve --segments /path/to/segments --port 9317 --obs-port 9179
//   ./resex_serve --docs 20000 --shards 4 --machines 2    # synthetic corpus
//
// Runs until SIGINT/SIGTERM (or --serve-seconds elapses).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <thread>

#include "cluster/instance.hpp"
#include "index/partition.hpp"
#include "net/server.hpp"
#include "obs/http.hpp"
#include "serve/broker.hpp"
#include "serve/search_service.hpp"
#include "util/flags.hpp"
#include "workload/synthetic.hpp"

namespace {

std::atomic<bool> g_stop{false};
void onSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("segments", "",
               "serve the segment files in this directory (written by "
               "mini_search --write-segments); empty = synthetic corpus")
      .define("docs", "20000", "synthetic corpus: documents")
      .define("terms", "5000", "synthetic corpus: vocabulary size")
      .define("shards", "4", "synthetic corpus: index partitions")
      .define("machines", "2", "simulated machines hosting the partitions")
      .define("workers", "2", "worker threads per machine")
      .define("queue-capacity", "1024",
              "tasks a machine may queue beyond its workers (its execution "
              "slot tokens are workers + this)")
      .define("cache", "4096", "result cache entries (0 = off)")
      .define("topk", "10", "default results per query")
      .define("deadline-ms", "0",
              "default per-query deadline (0 = none; clients may send "
              "their own budget per request)")
      .define("port", "9317", "RPC listen port (0 = ephemeral)")
      .define("net-shards", "1", "transport event-loop shards")
      .define("obs-port", "-1",
              "HTTP introspection port (0 = ephemeral, -1 = off)")
      .define("serve-seconds", "0", "exit after this long (0 = until signal)")
      .define("seed", "42", "random seed");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("resex_serve");
    return 0;
  }

  using namespace resex;

  // Index: segment-backed (mmap, zero-copy) or synthetic.
  const std::string segmentDir = flags.str("segments");
  SyntheticDocConfig corpus;
  corpus.seed = static_cast<std::uint64_t>(flags.integer("seed"));
  corpus.docCount = static_cast<std::uint32_t>(flags.integer("docs"));
  corpus.termCount = static_cast<std::uint32_t>(flags.integer("terms"));
  const PartitionedIndex index = [&] {
    try {
      if (!segmentDir.empty()) return PartitionedIndex::fromSegmentDir(segmentDir);
      return PartitionedIndex(corpus.termCount, generateDocuments(corpus),
                              static_cast<std::size_t>(flags.integer("shards")));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "resex_serve: cannot load index: %s\n", e.what());
      std::exit(1);
    }
  }();
  const std::size_t partitions = index.shardCount();
  const std::size_t machineCount = std::min(
      static_cast<std::size_t>(flags.integer("machines")), partitions);

  // Cluster instance: partitions hosted round-robin on uniform machines.
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
  const Instance instance(2, machines, shards, mapping, 0,
                          ResourceVector{0.5, 1.0});

  serve::ServeConfig config;
  config.topK = static_cast<std::uint32_t>(flags.integer("topk"));
  config.deadlineSeconds = flags.real("deadline-ms") * 1e-3;
  config.queueCapacity = static_cast<std::size_t>(flags.integer("queue-capacity"));
  config.workersPerMachine = static_cast<std::size_t>(flags.integer("workers"));
  config.cacheCapacity = static_cast<std::size_t>(flags.integer("cache"));
  config.seed = corpus.seed;
  serve::QueryBroker broker(instance, mapping, index, config);
  serve::SearchService service(broker);

  net::ServerConfig netConfig;
  netConfig.port = static_cast<std::uint16_t>(flags.integer("port"));
  netConfig.shards = static_cast<std::size_t>(flags.integer("net-shards"));
  net::Server server(netConfig, service.handler());
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resex_serve: cannot start server: %s\n", e.what());
    return 1;
  }

  obs::IntrospectionSources sources;
  sources.brokerJson = [&broker] { return broker.debugJson(); };
  sources.shardsJson = [&broker] { return broker.shardsJson(); };
  sources.tenantsJson = [&broker] { return broker.tenantsJson(); };
  const auto http =
      obs::serveIntrospection(static_cast<int>(flags.integer("obs-port")),
                              std::move(sources));

  std::printf("resex_serve: %zu partitions on %zu machines | "
              "listening on 127.0.0.1:%u (%zu transport shard%s, %s)\n",
              partitions, machineCount, server.port(), server.shardCount(),
              server.shardCount() == 1 ? "" : "s",
              server.reusePortActive() ? "SO_REUSEPORT" : "single-listener");
  if (http)
    std::printf("resex_serve: introspection on http://127.0.0.1:%d\n",
                http->port());
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  const double serveSeconds = flags.real("serve-seconds");
  const auto stopAt = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(serveSeconds));
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (serveSeconds > 0.0 && std::chrono::steady_clock::now() >= stopAt) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.stop();
  broker.shutdown();
  const net::ServerStats stats = server.stats();
  std::printf("resex_serve: served %llu frames, %llu responses, %llu protocol "
              "errors over %llu connections\n",
              static_cast<unsigned long long>(stats.framesReceived),
              static_cast<unsigned long long>(stats.responsesSent),
              static_cast<unsigned long long>(stats.protocolErrors),
              static_cast<unsigned long long>(stats.connectionsAccepted));
  return 0;
}
