// net_bench — socket-to-socket validation of the binary RPC front end:
// the transport must sustain an open-loop offered rate in the hundreds of
// thousands of QPS on loopback, add bounded tail latency over the
// in-process broker, reward pipelining, and never alter a result bit.
//
// Design. One process hosts the full serving stack (tiny synthetic corpus
// -> PartitionedIndex -> QueryBroker -> SearchService -> net::Server on a
// loopback ephemeral port) and drives it from a single-threaded
// multi-connection load generator built on net::Client. The corpus is
// deliberately small and the result cache on: after a warmup pass that
// touches every distinct query, steady state is cache-hit dominated, so
// the measurement isolates the transport + scheduling path (frame parse,
// submit, inline completion, frame encode, batched writev) from index
// execution — which query_bench already covers. Four phases:
//
//   * serial    — every connection keeps exactly one request in flight
//                 (send, wait, repeat): the no-pipelining baseline.
//   * pipelined — the same connections, requests streamed without waiting:
//                 max sustained QPS. The gate demands >= 5x serial.
//   * open loop (socket) — arrivals follow a fixed Zipf + diurnal schedule
//                 at --rate; latency is completion time minus *scheduled*
//                 arrival time, so backlog is charged to the server
//                 (no coordinated omission). Records p50/p99/p999.
//   * open loop (in-process) — the identical schedule replayed against
//                 QueryBroker::execute directly, measured the same way.
//                 The gate demands socket p99 <= --p99-ratio x this p99.
//
// Both open-loop arms share one core with the server here, so both tails
// are dominated by scheduler wakeup jitter; each arm runs --reps times and
// the gates compare the minimum p99 across reps (noise is additive — same
// argument as serve_bench/tenant_bench).
//
// Every response received in every phase is oracle-checked: its canonical
// re-encoding (cache-hit flag masked — hit/miss interleaving under
// concurrency is timing, not content) must be byte-identical to the frame
// encoding of an in-process QueryBroker::execute of the same query on an
// uncached twin broker. Scores travel as IEEE-754 bit patterns, so this
// is bit-exact, not approximate.
//
// Emits BENCH_net.json; --check exits nonzero unless all gates hold.

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/partition.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "open_loop.hpp"
#include "serve/broker.hpp"
#include "serve/search_service.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workload/diurnal.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace resex;
using Clock = std::chrono::steady_clock;

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t i = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(i),
                   values.end());
  return values[i];
}

/// Canonical response bytes for oracle comparison: a RESULT frame with
/// requestId 0 and the cache-hit flag masked off. Two responses are "the
/// same answer" iff these bytes match — doc ids, score bit patterns,
/// completeness, partition counts, everything else on the wire.
std::string canonicalBytes(net::QueryResponse response) {
  response.cacheHit = false;
  std::string out;
  net::encodeResultFrame(0, response, out);
  return out;
}

/// The expected answer for every query in the trace pool, computed by
/// QueryBroker::execute on a dedicated twin broker (same instance, same
/// index, cache off so execution is never skipped).
std::vector<std::string> buildOracle(const Instance& instance,
                                     const std::vector<MachineId>& mapping,
                                     const PartitionedIndex& index,
                                     serve::ServeConfig config,
                                     const std::vector<std::vector<TermId>>& pool) {
  config.cacheCapacity = 0;
  serve::QueryBroker oracle(instance, mapping, index, config);
  std::vector<std::string> expected;
  expected.reserve(pool.size());
  for (const auto& terms : pool)
    expected.push_back(canonicalBytes(serve::toWireResponse(oracle.execute(terms))));
  oracle.shutdown();
  return expected;
}

/// Single-threaded multi-connection load generator. Owns C pipelining
/// clients; every received response is matched back to the trace-pool
/// query it answered (requestIds are per-connection and sequential) and
/// byte-checked against the oracle on the spot.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections,
          const std::vector<std::vector<TermId>>& pool,
          const std::vector<std::string>& expected)
      : pool_(pool), expected_(expected) {
    for (std::size_t c = 0; c < connections; ++c) {
      clients_.push_back(std::make_unique<net::Client>("127.0.0.1", port));
      clients_.back()->connect();
      sentPool_.emplace_back();
    }
  }

  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }

  /// One request per connection in flight, `total` requests overall.
  /// Returns wall seconds.
  double runSerial(std::size_t total) {
    WallTimer timer;
    std::size_t sent = 0;
    std::vector<net::Reply> replies;
    for (std::size_t c = 0; sent < total; c = (c + 1) % clients_.size()) {
      enqueue(c, sent % pool_.size());
      ++sent;
      while (!clients_[c]->flush()) pollOne(*clients_[c], POLLOUT);
      replies.clear();
      while (replies.empty()) {
        pollOne(*clients_[c], POLLIN);
        if (!clients_[c]->drain(replies))
          throw std::runtime_error("net_bench: connection died mid-serial");
      }
      for (const net::Reply& reply : replies) account(c, reply);
    }
    return timer.seconds();
  }

  /// Streams `total` requests across all connections as fast as the
  /// sockets accept them, then drains the remaining responses.
  double runPipelined(std::size_t total) {
    WallTimer timer;
    std::size_t sent = 0;
    while (sent < total || inFlight_ > 0) {
      // Top up send buffers in bursts: big buffered batches amortize one
      // writev per connection over hundreds of frames.
      while (sent < total && inFlight_ < kMaxInFlight) {
        enqueue(sent % clients_.size(), sent % pool_.size());
        ++sent;
      }
      pump(-1);
    }
    return timer.seconds();
  }

  /// Open-loop replay: arrival i (due at offsets[i], Zipf-assigned pool
  /// query poolPick[i]) is buffered at its due time, never earlier;
  /// `latencies[i]` is completion minus scheduled arrival. Pacing runs on
  /// millisecond ticks (poll's granularity) — the in-process arm below
  /// paces on the identical ticks, so both arms carry the same <= 1 tick
  /// batching delay and the p99 ratio isolates the transport itself.
  double runOpenLoop(const std::vector<double>& offsets,
                     const std::vector<std::uint32_t>& poolPick,
                     std::vector<double>& latencies) {
    latencies.assign(offsets.size(), 0.0);
    openLatencies_ = &latencies;
    WallTimer timer;
    start_ = Clock::now();
    std::size_t next = 0;
    while (next < offsets.size() || inFlight_ > 0) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start_).count();
      while (next < offsets.size() && offsets[next] <= elapsed) {
        const std::size_t c = next % clients_.size();
        enqueue(c, poolPick[next], offsets[next],
                static_cast<std::uint32_t>(next));
        ++next;
      }
      int timeoutMs = -1;
      if (next < offsets.size()) {
        // Park in poll until the next arrival tick is due or a response
        // lands; the server thread runs while we are parked.
        const double wait = offsets[next] - elapsed;
        timeoutMs = std::max(1, static_cast<int>(std::ceil(wait * 1e3)));
      }
      pump(timeoutMs);
    }
    openLatencies_ = nullptr;
    return timer.seconds();
  }

 private:
  static constexpr std::size_t kMaxInFlight = 4096;

  struct SentRecord {
    std::uint32_t poolIndex = 0;
    std::uint32_t openIndex = 0;    ///< arrival slot within an open-loop run
    double scheduledOffset = -1.0;  ///< < 0: throughput phase, no latency
  };

  void enqueue(std::size_t c, std::size_t poolIndex, double scheduled = -1.0,
               std::uint32_t openIndex = 0) {
    net::QueryRequest request;
    request.terms = pool_[poolIndex];
    clients_[c]->send(request);
    sentPool_[c].push_back(SentRecord{static_cast<std::uint32_t>(poolIndex),
                                      openIndex, scheduled});
    ++inFlight_;
  }

  void account(std::size_t c, const net::Reply& reply) {
    if (reply.type != net::FrameType::kResult)
      throw std::runtime_error("net_bench: server answered with error code " +
                               std::to_string(static_cast<int>(reply.error.code)));
    const SentRecord& record = sentPool_[c].at(reply.requestId - 1);
    if (canonicalBytes(reply.response) != expected_[record.poolIndex])
      ++mismatches_;
    if (record.scheduledOffset >= 0.0 && openLatencies_) {
      const double done =
          std::chrono::duration<double>(Clock::now() - start_).count();
      (*openLatencies_)[record.openIndex] = done - record.scheduledOffset;
    }
    --inFlight_;
    ++received_;
  }

  /// One poll + flush + drain cycle across every connection.
  void pump(int timeoutMs) {
    pollSet_.clear();
    for (const auto& client : clients_) {
      short events = POLLIN;
      if (client->pendingSendBytes() > 0) events |= POLLOUT;
      pollSet_.push_back(pollfd{client->fd(), events, 0});
    }
    ::poll(pollSet_.data(), pollSet_.size(), timeoutMs);
    std::vector<net::Reply> replies;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->flush();
      replies.clear();
      if (!clients_[c]->drain(replies))
        throw std::runtime_error("net_bench: connection died under load");
      for (const net::Reply& reply : replies) account(c, reply);
    }
  }

  void pollOne(net::Client& client, short events) {
    pollfd pfd{client.fd(), events, 0};
    ::poll(&pfd, 1, -1);
  }

  const std::vector<std::vector<TermId>>& pool_;
  const std::vector<std::string>& expected_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  /// Per connection, the pool index + schedule slot of requestId i at [i-1].
  std::vector<std::vector<SentRecord>> sentPool_;
  std::vector<pollfd> pollSet_;
  Clock::time_point start_{};
  std::vector<double>* openLatencies_ = nullptr;
  std::size_t inFlight_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("docs", "2000", "documents in the corpus")
      .define("terms", "500", "vocabulary size")
      .define("partitions", "2", "index partitions (query fan-out)")
      .define("machines", "2", "simulated machines")
      .define("queries", "400", "distinct queries in the trace pool")
      .define("connections", "4", "client connections")
      .define("net-shards", "1", "server event-loop shards")
      .define("rate", "105000", "open-loop offered rate (mean QPS)")
      .define("duration", "1.5", "seconds of open-loop traffic per rep")
      .define("reps", "2",
              "open-loop repetitions per arm; gates compare min p99 "
              "across reps (scheduler noise is additive)")
      .define("serial-requests", "2000", "requests in the serial phase")
      .define("pipeline-requests", "60000", "requests in the pipelined phase")
      .define("diurnal-amplitude", "0.3",
              "peak-to-mean swing of the arrival schedule (one model day "
              "is compressed onto each rep's duration)")
      .define("topk", "8", "results per query")
      .define("seed", "7", "random seed")
      .define("out", "BENCH_net.json", "output record path")
      .define("p99-ratio", "2.0",
              "check gate: socket open-loop p99 budget as a multiple of "
              "the in-process open-loop p99")
      .define("min-rate", "100000",
              "check gate: minimum sustained open-loop QPS")
      .define("pipeline-x", "5.0",
              "check gate: pipelined throughput as a multiple of serial")
      .define("check", "false",
              "exit nonzero unless all gates hold (sustained rate, p99 "
              "ratio, pipelining speedup, zero oracle mismatches)");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("net_bench");
    return 0;
  }

  const auto seed = flags.count<std::uint64_t>("seed");
  const auto partitions = flags.count("partitions");
  const auto machineCount = std::min(flags.count("machines"), partitions);

  // -- Corpus, index, instance ---------------------------------------------
  // Deliberately tiny: the subject is the transport, not the kernel. The
  // result cache makes steady state execution-free (see header comment).
  SyntheticDocConfig docConfig;
  docConfig.seed = seed;
  docConfig.docCount = flags.count<std::uint32_t>("docs");
  docConfig.termCount = flags.count<std::uint32_t>("terms");
  const auto documents = generateDocuments(docConfig);
  const PartitionedIndex index(docConfig.termCount, documents, partitions);

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

  // -- Trace pool: Zipf term draws, Zipf pool popularity -------------------
  const auto poolSize = flags.count("queries");
  const ZipfSampler termPick(docConfig.termCount, 0.9);
  Rng traceRng(seed + 101);
  std::vector<std::vector<TermId>> pool(poolSize);
  for (auto& query : pool)
    for (std::size_t i = 0; i < 2; ++i)
      query.push_back(static_cast<TermId>(termPick.sample(traceRng) - 1));

  serve::ServeConfig config;
  config.topK = flags.count<std::uint32_t>("topk");
  config.deadlineSeconds = 0.0;  // all-partition answers: oracle-comparable
  config.workersPerMachine = 1;
  config.cacheCapacity = std::max<std::size_t>(4096, 2 * poolSize);
  config.seed = seed;
  serve::QueryBroker broker(instance, mapping, index, config);
  serve::SearchService service(broker);
  net::ServerConfig netConfig;
  netConfig.port = 0;
  netConfig.shards = flags.count("net-shards");
  net::Server server(netConfig, service.handler());
  server.start();
  std::printf("serving %zu partitions on 127.0.0.1:%u (%s backend)\n",
              partitions, server.port(),
              server.reusePortActive() ? "reuseport" : "single-listener");

  const std::vector<std::string> expected =
      buildOracle(instance, mapping, index, config, pool);

  const auto connections = flags.count("connections");
  LoadGen gen(server.port(), connections, pool, expected);

  // -- Warmup: touch every distinct query once (fills the server cache and
  // oracle-checks the execution path itself, pre-cache) -------------------
  gen.runPipelined(poolSize);

  // -- Serial vs pipelined throughput --------------------------------------
  const auto serialTotal = flags.count("serial-requests");
  const double serialWall = gen.runSerial(serialTotal);
  const double serialQps = static_cast<double>(serialTotal) / serialWall;
  const auto pipeTotal = flags.count("pipeline-requests");
  const double pipeWall = gen.runPipelined(pipeTotal);
  const double pipeQps = static_cast<double>(pipeTotal) / pipeWall;
  std::printf("serial %zu reqs in %.3fs = %.0f qps | pipelined %zu reqs in "
              "%.3fs = %.0f qps (%.1fx)\n",
              serialTotal, serialWall, serialQps, pipeTotal, pipeWall, pipeQps,
              pipeQps / serialQps);

  // -- Open loop: socket arm vs in-process arm, same schedule --------------
  const double rate = flags.real("rate");
  const double duration = flags.real("duration");
  const auto arrivals = static_cast<std::size_t>(rate * duration);
  DiurnalModel diurnal;
  diurnal.amplitude = flags.real("diurnal-amplitude");
  const std::vector<double> offsets =
      bench::diurnalArrivalOffsets(arrivals, rate, diurnal, duration);
  const double span = offsets.back();
  Rng pickRng(seed + 202);
  const ZipfSampler poolPick(poolSize, 0.9);
  std::vector<std::uint32_t> picks(arrivals);
  for (auto& pick : picks)
    pick = static_cast<std::uint32_t>(poolPick.sample(pickRng) - 1);

  const auto reps = std::max<std::size_t>(1, flags.count("reps"));
  struct Arm {
    double p50 = 0.0, p99 = 0.0, p999 = 0.0, sustained = 0.0;
    std::vector<double> repP99;
  };
  Arm socketArm, inprocArm;
  std::vector<double> latencies;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double wall = gen.runOpenLoop(offsets, picks, latencies);
    const double p99 = quantile(latencies, 0.99);
    socketArm.repP99.push_back(p99);
    if (rep == 0 || p99 < socketArm.p99) {
      socketArm.p50 = quantile(latencies, 0.50);
      socketArm.p99 = p99;
      socketArm.p999 = quantile(latencies, 0.999);
      socketArm.sustained = static_cast<double>(arrivals) / wall;
    }
    std::printf("socket    rep %zu: %.0f qps sustained, p50 %.0fus p99 "
                "%.0fus p999 %.0fus\n",
                rep, static_cast<double>(arrivals) / wall,
                quantile(latencies, 0.50) * 1e6, p99 * 1e6,
                quantile(latencies, 0.999) * 1e6);
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Same tick-batched pacing as the socket arm (millisecond sleeps,
    // every due arrival issued per tick) so the two arms differ only in
    // what "issue" means: a direct execute() here, a socket round trip
    // there.
    latencies.assign(arrivals, 0.0);
    WallTimer timer;
    const auto start = Clock::now();
    std::size_t next = 0;
    while (next < arrivals) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      while (next < arrivals && offsets[next] <= elapsed) {
        broker.execute(pool[picks[next]]);
        latencies[next] =
            std::chrono::duration<double>(Clock::now() - start).count() -
            offsets[next];
        ++next;
      }
      if (next < arrivals) {
        const double wait =
            offsets[next] -
            std::chrono::duration<double>(Clock::now() - start).count();
        if (wait > 0.0)
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::max(1, static_cast<int>(std::ceil(wait * 1e3)))));
      }
    }
    const double wall = timer.seconds();
    const double p99 = quantile(latencies, 0.99);
    inprocArm.repP99.push_back(p99);
    if (rep == 0 || p99 < inprocArm.p99) {
      inprocArm.p50 = quantile(latencies, 0.50);
      inprocArm.p99 = p99;
      inprocArm.p999 = quantile(latencies, 0.999);
      inprocArm.sustained = static_cast<double>(arrivals) / wall;
    }
    std::printf("in-process rep %zu: %.0f qps sustained, p50 %.0fus p99 "
                "%.0fus p999 %.0fus\n",
                rep, static_cast<double>(arrivals) / wall,
                quantile(latencies, 0.50) * 1e6, p99 * 1e6,
                quantile(latencies, 0.999) * 1e6);
  }

  server.stop();
  broker.shutdown();

  const net::ServerStats stats = server.stats();
  const double p99Ratio =
      inprocArm.p99 > 0.0 ? socketArm.p99 / inprocArm.p99 : 0.0;
  Table table({"arm", "sustained qps", "p50 us", "p99 us", "p999 us"});
  table.addRow({"socket", Table::num(socketArm.sustained, 0),
                Table::num(socketArm.p50 * 1e6, 0),
                Table::num(socketArm.p99 * 1e6, 0),
                Table::num(socketArm.p999 * 1e6, 0)});
  table.addRow({"in-process", Table::num(inprocArm.sustained, 0),
                Table::num(inprocArm.p50 * 1e6, 0),
                Table::num(inprocArm.p99 * 1e6, 0),
                Table::num(inprocArm.p999 * 1e6, 0)});
  table.print();
  std::printf("oracle: %llu responses checked, %llu mismatches\n",
              static_cast<unsigned long long>(gen.received()),
              static_cast<unsigned long long>(gen.mismatches()));

  JsonWriter json;
  json.beginObject();
  json.field("bench", "net");
  json.field("seed", static_cast<std::int64_t>(seed));
  json.field("docs", flags.integer("docs"));
  json.field("partitions", static_cast<std::uint64_t>(partitions));
  json.field("connections", static_cast<std::uint64_t>(connections));
  json.field("net_shards", flags.integer("net-shards"));
  json.field("offered_qps", rate);
  json.field("arrivals_per_rep", static_cast<std::uint64_t>(arrivals));
  json.field("schedule_span_seconds", span);
  json.field("reps", static_cast<std::uint64_t>(reps));
  json.field("serial_qps", serialQps);
  json.field("pipelined_qps", pipeQps);
  json.field("pipeline_speedup", pipeQps / serialQps);
  json.field("max_sustained_qps", pipeQps);
  for (const auto& [name, arm] :
       {std::pair<const char*, const Arm&>{"socket", socketArm},
        {"inprocess", inprocArm}}) {
    json.key(name).beginObject();
    json.field("sustained_qps", arm.sustained);
    json.field("p50_seconds", arm.p50);
    json.field("p99_seconds", arm.p99);
    json.field("p999_seconds", arm.p999);
    json.key("rep_p99_seconds").beginArray();
    for (const double p : arm.repP99) json.value(p);
    json.endArray();
    json.endObject();
  }
  json.field("p99_ratio", p99Ratio);
  json.field("responses_checked", gen.received());
  json.field("oracle_mismatches", gen.mismatches());
  json.field("server_frames_received", stats.framesReceived);
  json.field("server_responses_sent", stats.responsesSent);
  json.field("server_read_pauses", stats.readPauses);
  json.endObject();
  std::ofstream(flags.str("out")) << json.str() << "\n";
  std::printf("record written to %s\n", flags.str("out").c_str());

  if (flags.boolean("check")) {
    bool ok = true;
    if (gen.mismatches() != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: %llu socket responses differed from "
                   "in-process execution\n",
                   static_cast<unsigned long long>(gen.mismatches()));
      ok = false;
    }
    const double minRate = flags.real("min-rate");
    if (socketArm.sustained < minRate) {
      std::fprintf(stderr,
                   "CHECK FAILED: sustained open-loop rate %.0f qps < "
                   "%.0f qps floor (offered %.0f)\n",
                   socketArm.sustained, minRate, rate);
      ok = false;
    }
    const double pipelineX = flags.real("pipeline-x");
    if (pipeQps < pipelineX * serialQps) {
      std::fprintf(stderr,
                   "CHECK FAILED: pipelining %.1fx serial < %.1fx floor "
                   "(%.0f vs %.0f qps)\n",
                   pipeQps / serialQps, pipelineX, pipeQps, serialQps);
      ok = false;
    }
    const double p99Budget = flags.real("p99-ratio");
    if (inprocArm.p99 <= 0.0 || p99Ratio > p99Budget) {
      std::fprintf(stderr,
                   "CHECK FAILED: socket p99 %.0fus vs in-process %.0fus "
                   "(min over %zu reps; ratio %.2f > budget %.2f)\n",
                   socketArm.p99 * 1e6, inprocArm.p99 * 1e6, reps, p99Ratio,
                   p99Budget);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK OK: %.0f qps sustained, p99 ratio %.2f <= %.2f, "
                "pipelining %.1fx >= %.1fx, 0/%llu oracle mismatches\n",
                socketArm.sustained, p99Ratio, p99Budget, pipeQps / serialQps,
                pipelineX, static_cast<unsigned long long>(gen.received()));
  }
  return 0;
}
