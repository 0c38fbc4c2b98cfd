// cold_scan: the full socket serving stack (corpus -> PartitionedIndex ->
// QueryBroker -> SearchService -> net::Server on loopback) driven by one
// single-threaded open-loop generator over at most nproc connections.
// query_bench's corpus over lognormal-sized partitions on four machines,
// multi-term Zipf queries without stop-words, the result cache off and no
// deadline: every query fans out to every partition and runs block-max DAAT
// there. Every response is byte-compared against an uncached twin broker's
// in-process answer.
//
// Service is paced (ServeConfig::serviceFixedSeconds / PerPosting): on a
// shared 4-vCPU host, unpaced sub-millisecond serving latencies and the
// capacity they set moved by a quarter or more between identical runs,
// while paced ones hold within a few percent. Pacing charges per posting
// scanned, so kernel changes that scan fewer postings still move latency
// and capacity; a kernel that only scans the same postings faster shows in
// index.exec_us instead.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster/assignment.hpp"
#include "index/partition.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "open_loop.hpp"
#include "serve/broker.hpp"
#include "serve/search_service.hpp"
#include "workload/zipf.hpp"
#include "workloads.hpp"

namespace resex::perfbench {

std::string canonicalBytes(net::QueryResponse response) {
  response.cacheHit = false;
  std::string out;
  net::encodeResultFrame(0, response, out);
  return out;
}

std::vector<std::uint32_t> zipfPicks(std::size_t count, std::size_t poolSize,
                                     std::uint64_t seed) {
  const ZipfSampler sampler(poolSize, 0.9);
  Rng rng(seed);
  std::vector<std::uint32_t> picks(count);
  for (auto& pick : picks) pick = static_cast<std::uint32_t>(sampler.sample(rng) - 1);
  return picks;
}

std::vector<std::vector<TermId>> zipfQueries(std::size_t count,
                                             std::uint32_t termCount,
                                             std::uint64_t stopwords,
                                             std::size_t termsPerQuery,
                                             std::uint64_t seed) {
  const ZipfSampler termPick(termCount - stopwords, 0.9);
  Rng rng(seed);
  std::vector<std::vector<TermId>> queries(count);
  for (auto& query : queries)
    for (std::size_t t = 0; t < termsPerQuery; ++t)
      query.push_back(static_cast<TermId>(stopwords + termPick.sample(rng) - 1));
  return queries;
}

std::vector<double> skewedWeights(std::size_t partitions, double sigma) {
  Rng rng(0x5eed5eedULL);
  std::vector<double> weights(partitions);
  for (double& w : weights) w = rng.lognormal(0.0, sigma);
  return weights;
}

void setEndToEnd(RunResult& result, double setupSeconds, double p50Seconds,
                 double p99Seconds, double capacity, double bottleneck) {
  result.metrics["setup_s"] = setupSeconds;
  result.metrics["p50_ms"] = p50Seconds * 1e3;
  result.metrics["p99_ms"] = p99Seconds * 1e3;
  result.metrics["capacity_qps"] = capacity;
  result.metrics["bottleneck"] = bottleneck;
  result.metrics["ok_frac"] =
      result.attempted > 0
          ? 1.0 - static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted)
          : 0.0;
}

InprocResult replayInproc(serve::QueryBroker& broker,
                          const std::vector<std::vector<TermId>>& pool,
                          const std::vector<std::string>& expected,
                          const std::vector<double>& offsets,
                          const std::vector<std::uint32_t>& picks) {
  const std::size_t n = offsets.size();
  InprocResult result;
  result.due.resize(n);
  result.entered.resize(n);
  result.done.resize(n);
  result.executed.assign(n, 0);
  result.submitUs.assign(n, 0.0);
  std::vector<std::uint8_t> bad(n, 0), mismatch(n, 0);
  std::atomic<std::size_t> completed{0};
  serve::SubmitOptions options;
  options.waitForQueue = false;  // SearchService's transport-thread contract

  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    result.due[i] = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offsets[i]));
    // Sleep to just short of the due time, then spin: wakeups land late by
    // tens of microseconds, which would otherwise be charged as latency.
    if (result.due[i] - Clock::now() > std::chrono::microseconds(100))
      std::this_thread::sleep_until(result.due[i] - std::chrono::microseconds(80));
    while (Clock::now() < result.due[i]) {
    }
    const std::uint32_t pick = picks[i];
    result.entered[i] = Clock::now();
    broker.submit(pool[pick], options, [&, i, pick](serve::QueryResult query) {
      result.done[i] = Clock::now();
      result.executed[i] = query.cacheHit ? 0 : 1;
      if (!query.complete) {
        bad[i] = 1;
      } else if (canonicalBytes(serve::toWireResponse(query)) != expected[pick]) {
        bad[i] = 1;
        mismatch[i] = 1;
      }
      completed.fetch_add(1, std::memory_order_release);
    });
    result.submitUs[i] = std::chrono::duration<double, std::micro>(
                             Clock::now() - result.entered[i])
                             .count();
  }
  const auto waitStart = Clock::now();
  while (completed.load(std::memory_order_acquire) < n) {
    if (secondsSince(waitStart) > 60.0)
      throw std::runtime_error("perfbench: in-process pass stalled");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  result.latency.resize(n);
  result.genLag.resize(n);
  result.completeUs.resize(n);
  Clock::time_point lastDone = start;
  for (std::size_t i = 0; i < n; ++i) {
    result.latency[i] =
        std::chrono::duration<double>(result.done[i] - result.due[i]).count();
    result.genLag[i] =
        std::chrono::duration<double>(result.entered[i] - result.due[i]).count();
    result.completeUs[i] = std::chrono::duration<double, std::micro>(
                               result.done[i] - result.entered[i])
                               .count();
    result.failures += bad[i];
    result.mismatches += mismatch[i];
    lastDone = std::max(lastDone, result.done[i]);
  }
  if (n > 0)
    result.drainSeconds =
        std::chrono::duration<double>(lastDone - result.due.back()).count();
  return result;
}

void recordInprocSpans(SpanStore& spans, const InprocResult& pass) {
  const std::uint32_t root = spans.intern("bench.request.inproc");
  const std::uint32_t submitName = spans.intern("serve.QueryBroker.submit");
  for (std::size_t i = 0; i < pass.due.size(); ++i) {
    const std::uint64_t parent = spans.record(root, i + 1, 0, pass.due[i], pass.done[i]);
    spans.record(submitName, i + 1, parent, pass.entered[i], pass.done[i]);
  }
}

IndexReplay replayIndex(const PartitionedIndex& index,
                        const std::vector<std::vector<TermId>>& pool,
                        std::uint32_t topK, const Bm25Params& bm25,
                        const std::vector<std::uint8_t>& wanted, SpanStore& spans) {
  IndexReplay replay;
  replay.execUs.resize(pool.size());
  replay.stats.resize(pool.size());
  const std::uint32_t name = spans.intern("index.topKDisjunctiveInto");
  QueryScratch scratch;
  for (std::size_t q = 0; q < pool.size(); ++q) {
    if (!wanted[q]) continue;
    for (std::size_t p = 0; p < index.shardCount(); ++p) {
      const auto t0 = Clock::now();
      topKDisjunctiveInto(index.shard(p), pool[q], topK, bm25, scratch,
                          &replay.stats[q], &index.globalStats());
      const auto t1 = Clock::now();
      spans.record(name, q + 1, 0, t0, t1);
      replay.execUs[q].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  return replay;
}

void setIndexMetrics(RunResult& result, const IndexReplay& replay,
                     const std::vector<std::uint32_t>& picks,
                     const std::vector<std::uint8_t>& executed) {
  std::vector<double> execUs;
  ExecStats totals;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (!executed[i]) continue;
    const std::uint32_t q = picks[i];
    execUs.insert(execUs.end(), replay.execUs[q].begin(), replay.execUs[q].end());
    totals.postingsScanned += replay.stats[q].postingsScanned;
    totals.blocksDecoded += replay.stats[q].blocksDecoded;
    totals.blocksSkipped += replay.stats[q].blocksSkipped;
    totals.heapThresholdPrunes += replay.stats[q].heapThresholdPrunes;
  }
  const Summary exec = summarize(std::move(execUs));
  const double perQuery = picks.empty() ? 0.0 : 1.0 / static_cast<double>(picks.size());
  const double blocks = static_cast<double>(totals.blocksDecoded + totals.blocksSkipped);
  auto& m = result.metrics;
  m["index.exec_us.p50"] = exec.p50;
  m["index.exec_us.p99"] = exec.p99;
  m["index.postings_per_query"] = static_cast<double>(totals.postingsScanned) * perQuery;
  m["index.blocks_decoded_per_query"] = static_cast<double>(totals.blocksDecoded) * perQuery;
  m["index.skip_ratio"] =
      blocks > 0.0 ? static_cast<double>(totals.blocksSkipped) / blocks : 0.0;
  m["index.heap_prunes_per_query"] =
      static_cast<double>(totals.heapThresholdPrunes) * perQuery;
  result.noteSamples("index.exec_us", exec);
}

void setSubmitMetrics(RunResult& result, const IndexReplay& replay,
                      const std::vector<std::uint32_t>& picks,
                      const InprocResult& pass) {
  std::vector<double> waitUs(picks.size());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    double slowest = 0.0;
    if (pass.executed[i])
      for (const double us : replay.execUs[picks[i]]) slowest = std::max(slowest, us);
    waitUs[i] = std::max(0.0, pass.completeUs[i] - slowest);
  }
  const Summary submit = summarize(pass.submitUs);
  const Summary complete = summarize(pass.completeUs);
  const Summary wait = summarize(std::move(waitUs));
  auto& m = result.metrics;
  m["serve.submit_us.p50"] = submit.p50;
  m["serve.submit_us.p99"] = submit.p99;
  m["serve.complete_us.p50"] = complete.p50;
  m["serve.complete_us.p99"] = complete.p99;
  m["serve.wait_us.p50"] = wait.p50;
  m["serve.wait_us.p99"] = wait.p99;
  result.noteSamples("serve.submit_us", submit);
  result.noteSamples("serve.wait_us", wait);
}

void LoadTotals::add(const serve::ObservedLoad& load, const serve::QueryBroker& broker) {
  busySeconds.resize(broker.machineCount(), 0.0);
  workers.resize(broker.machineCount(), 1);
  windowSeconds += load.windowSeconds;
  for (std::size_t m = 0; m < broker.machineCount(); ++m) {
    busySeconds[m] += load.machineBusySeconds[m];
    workers[m] = broker.workerCount(m);
  }
  queries += load.queries;
  cacheHits += load.cacheHits;
  shedTasks += load.shedTasks;
  expiredQueries += load.expiredQueries;
}

void setLoadMetrics(RunResult& result, const LoadTotals& totals) {
  double busyMax = 0.0, busySum = 0.0;
  for (std::size_t m = 0; m < totals.busySeconds.size(); ++m) {
    const double denom = totals.windowSeconds * static_cast<double>(totals.workers[m]);
    const double busy = denom > 0.0 ? totals.busySeconds[m] / denom : 0.0;
    busyMax = std::max(busyMax, busy);
    busySum += busy;
  }
  auto& metrics = result.metrics;
  metrics["serve.busy_frac.max"] = busyMax;
  metrics["serve.busy_frac.mean"] =
      totals.busySeconds.empty() ? 0.0
                                 : busySum / static_cast<double>(totals.busySeconds.size());
  metrics["serve.cache_hit_ratio"] =
      totals.queries > 0
          ? static_cast<double>(totals.cacheHits) / static_cast<double>(totals.queries)
          : 0.0;
  metrics["serve.shed_tasks"] = static_cast<double>(totals.shedTasks);
  metrics["serve.expired_queries"] = static_cast<double>(totals.expiredQueries);
}

double ladderCapacity(RunResult& result, const std::vector<double>& ladder,
                      double p99LimitSeconds,
                      const std::function<ProbeOutcome(double)>& probe) {
  std::vector<double> capacities;
  for (std::size_t search = 0; search < kLadderSearches; ++search) {
    const LadderResult ladderResult = searchLadder(ladder, [&](double rate) {
      const ProbeOutcome outcome = probe(rate);
      const StepVerdict verdict = judgeStep(outcome, p99LimitSeconds, p99LimitSeconds / 4.0);
      result.noteProbe(search, rate, outcome, verdict);
      return verdict;
    });
    capacities.push_back(ladderResult.capacity);
    result.details["ladder.invalid_steps"] += static_cast<double>(ladderResult.invalidSteps);
  }
  return *std::max_element(capacities.begin(), capacities.end());
}

namespace {

struct ServingSpec {
  std::uint32_t docs = 0;
  std::uint32_t terms = 0;
  std::size_t partitions = 0;
  std::size_t machines = 0;
  double skewSigma = 0.0;  ///< 0 = equal partitions
  std::size_t poolSize = 0;
  std::size_t termsPerQuery = 2;
  std::uint64_t stopwords = 0;
  std::size_t cacheCapacity = 0;
  /// Fixed rate of the p50/p99 passes, and the capacity limit on p99.
  double referenceRate = 0.0;
  double p99LimitSeconds = 0.0;
  double ladderLo = 0.0, ladderHi = 0.0, ladderRatio = 1.08;
  /// Broker service pacing (ServeConfig) and workers per machine.
  double serviceFixedSeconds = 0.0;
  double servicePerPostingSeconds = 0.0;
  std::size_t workersPerMachine = 1;
};

// query_bench's corpus over 8 lognormal-sized partitions on 4 machines.
const ServingSpec kColdScan{
    .docs = 40000, .terms = 6000, .partitions = 8, .machines = 4,
    .skewSigma = 0.5, .poolSize = 2000, .termsPerQuery = 3, .stopwords = 20,
    .cacheCapacity = 0, .referenceRate = 300.0, .p99LimitSeconds = 0.025,
    .ladderLo = 100.0, .ladderHi = 4000.0, .ladderRatio = 1.04,
    .serviceFixedSeconds = 300e-6, .servicePerPostingSeconds = 0.5e-6,
    .workersPerMachine = 2};

/// What one open-loop socket pass observed, per arrival.
struct PassResult {
  std::vector<double> latency;  ///< completion minus scheduled arrival
  std::vector<double> genLag;   ///< send minus scheduled arrival
  std::vector<std::uint8_t> executed;  ///< not answered from the cache
  std::size_t failures = 0;     ///< error frames and partial answers
  std::size_t mismatches = 0;   ///< complete answers that differ from the oracle
  double drainSeconds = 0.0;    ///< last completion minus last scheduled arrival
  // Traced passes only.
  std::vector<double> flushUs, drainUs;
  std::size_t replies = 0, drainsWithReplies = 0;
  std::size_t maxQueueDepth = 0;
  Clock::time_point start{};
};

/// Single-threaded multi-connection open-loop generator (net_bench's
/// LoadGen, paced with ppoll so arrivals leave on time to tens of
/// microseconds rather than on millisecond ticks). Every reply is matched to its arrival by
/// per-connection sequential requestId and oracle-checked on the spot.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections,
          const std::vector<std::vector<TermId>>& pool,
          const std::vector<std::string>& expected)
      : pool_(pool), expected_(expected) {
    for (std::size_t c = 0; c < connections; ++c) {
      clients_.push_back(std::make_unique<net::Client>("127.0.0.1", port));
      clients_.back()->connect();
    }
    sent_.resize(connections);
    firstId_.assign(connections, 1);
  }

  /// Replays arrival i (pool query picks[i]) at offsets[i] seconds after
  /// the pass starts. With `spans`, times every Client flush/drain call and
  /// samples broker queue depths.
  PassResult run(const std::vector<double>& offsets,
                 const std::vector<std::uint32_t>& picks, SpanStore* spans,
                 const serve::QueryBroker* broker) {
    const std::size_t n = offsets.size();
    PassResult result;
    result.latency.assign(n, 0.0);
    result.genLag.assign(n, 0.0);
    result.executed.assign(n, 0);
    pass_ = &result;
    spans_ = spans;
    broker_ = broker;
    if (spans) {
      flushName_ = spans->intern("net.Client.flush");
      drainName_ = spans->intern("net.Client.drain");
    }
    // Every reply of the previous pass has arrived: restart the records.
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      firstId_[c] += sent_[c].size();
      sent_[c].clear();
    }
    start_ = Clock::now();
    result.start = start_;
    auto lastProgress = start_;
    std::uint64_t seen = received_;
    std::size_t next = 0;
    double lastDone = 0.0;
    while (next < n || inFlight_ > 0) {
      const double now = secondsSince(start_);
      while (next < n && offsets[next] <= now) {
        const std::size_t c = next % clients_.size();
        net::QueryRequest request;
        request.terms = pool_[picks[next]];
        clients_[c]->send(request);
        sent_[c].push_back({picks[next], static_cast<std::uint32_t>(next),
                            offsets[next]});
        result.genLag[next] = now - offsets[next];
        ++inFlight_;
        ++next;
      }
      // Park until the next arrival is due or a reply lands.
      std::int64_t waitNs = 20'000'000;
      if (next < n)
        waitNs = std::max<std::int64_t>(
            0, static_cast<std::int64_t>((offsets[next] - secondsSince(start_)) * 1e9));
      pump(waitNs);
      if (received_ != seen) {
        seen = received_;
        lastProgress = Clock::now();
        lastDone = secondsSince(start_);
      } else if (secondsSince(lastProgress) > 30.0) {
        throw std::runtime_error("perfbench: no reply for 30 s");
      }
    }
    result.drainSeconds = n > 0 ? lastDone - offsets.back() : 0.0;
    pass_ = nullptr;
    spans_ = nullptr;
    broker_ = nullptr;
    return result;
  }

 private:
  struct Sent {
    std::uint32_t pool = 0;
    std::uint32_t arrival = 0;
    double scheduled = 0.0;
  };

  void pump(std::int64_t waitNs) {
    for (auto& client : clients_)
      if (client->pendingSendBytes() > 0) flush(*client);
    pollSet_.clear();
    for (const auto& client : clients_) {
      short events = POLLIN;
      if (client->pendingSendBytes() > 0) events |= POLLOUT;
      pollSet_.push_back(pollfd{client->fd(), events, 0});
    }
    const timespec timeout{static_cast<time_t>(waitNs / 1'000'000'000),
                           static_cast<long>(waitNs % 1'000'000'000)};
    ::ppoll(pollSet_.data(), pollSet_.size(), &timeout, nullptr);
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      const short revents = pollSet_[c].revents;
      if (revents & POLLOUT) flush(*clients_[c]);
      if (revents & (POLLIN | POLLHUP | POLLERR)) drain(c);
    }
    if (spans_ && broker_)
      for (std::size_t m = 0; m < broker_->machineCount(); ++m)
        pass_->maxQueueDepth = std::max(pass_->maxQueueDepth, broker_->queueDepth(m));
  }

  void flush(net::Client& client) {
    if (!spans_) {
      client.flush();
      return;
    }
    const auto t0 = Clock::now();
    client.flush();
    const auto t1 = Clock::now();
    spans_->record(flushName_, 0, 0, t0, t1);
    pass_->flushUs.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }

  void drain(std::size_t c) {
    replies_.clear();
    const auto t0 = Clock::now();
    const bool alive = clients_[c]->drain(replies_);
    if (spans_) {
      const auto t1 = Clock::now();
      spans_->record(drainName_, 0, 0, t0, t1);
      pass_->drainUs.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (!replies_.empty()) {
        pass_->replies += replies_.size();
        ++pass_->drainsWithReplies;
      }
    }
    if (!alive) throw std::runtime_error("perfbench: connection closed under load");
    for (const net::Reply& reply : replies_) account(c, reply);
  }

  void account(std::size_t c, const net::Reply& reply) {
    const Sent& sent = sent_[c].at(reply.requestId - firstId_[c]);
    PassResult& pass = *pass_;
    pass.latency[sent.arrival] = secondsSince(start_) - sent.scheduled;
    if (reply.type != net::FrameType::kResult || !reply.response.complete) {
      ++pass.failures;
    } else if (canonicalBytes(reply.response) != expected_[sent.pool]) {
      ++pass.failures;
      ++pass.mismatches;
    }
    pass.executed[sent.arrival] = reply.response.cacheHit ? 0 : 1;
    --inFlight_;
    ++received_;
  }

  const std::vector<std::vector<TermId>>& pool_;
  const std::vector<std::string>& expected_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  /// Per connection, the arrival behind requestId i of the current pass at
  /// [i - firstId_].
  std::vector<std::vector<Sent>> sent_;
  std::vector<std::uint64_t> firstId_;
  std::vector<pollfd> pollSet_;
  std::vector<net::Reply> replies_;
  Clock::time_point start_{};
  PassResult* pass_ = nullptr;
  SpanStore* spans_ = nullptr;
  const serve::QueryBroker* broker_ = nullptr;
  std::uint32_t flushName_ = 0, drainName_ = 0;
  std::size_t inFlight_ = 0;
  std::uint64_t received_ = 0;
};

/// Everything one set-up builds: corpus, index, instance, query pool, the
/// twin-broker oracle, the serving broker, the socket server, connected
/// generator, and a warm-up pass over every pool query.
struct Stack {
  Stack(const ServingSpec& spec, std::uint64_t seed) {
    SyntheticDocConfig docConfig;
    docConfig.seed = seed;
    docConfig.docCount = spec.docs;
    docConfig.termCount = spec.terms;
    index = std::make_unique<PartitionedIndex>(
        spec.terms, generateDocuments(docConfig), spec.partitions,
        spec.skewSigma > 0.0 ? skewedWeights(spec.partitions, spec.skewSigma)
                             : std::vector<double>{});

    std::vector<Shard> shards(spec.partitions);
    mapping.resize(spec.partitions);
    double totalBytes = 0.0;
    for (ShardId s = 0; s < spec.partitions; ++s) {
      const double bytes = static_cast<double>(index->shard(s).indexBytes());
      shards[s].id = s;
      shards[s].demand = ResourceVector{index->docFraction(s), bytes};
      shards[s].moveBytes = bytes;
      totalBytes += bytes;
      mapping[s] = static_cast<MachineId>(s % spec.machines);
    }
    std::vector<Machine> machines(spec.machines);
    for (std::size_t m = 0; m < spec.machines; ++m) {
      machines[m].id = static_cast<MachineId>(m);
      machines[m].capacity = ResourceVector{1.0, totalBytes};
    }
    instance = std::make_unique<Instance>(2, machines, shards, mapping, 0,
                                          ResourceVector{0.5, 1.0});

    pool = zipfQueries(spec.poolSize, spec.terms, spec.stopwords,
                       spec.termsPerQuery, seed + 101);

    config.topK = 10;
    config.deadlineSeconds = 0.0;  // all-partition answers: oracle-comparable
    config.workersPerMachine = spec.workersPerMachine;
    config.cacheCapacity = spec.cacheCapacity;
    config.seed = seed;
    {
      serve::ServeConfig oracleConfig = config;
      oracleConfig.cacheCapacity = 0;
      serve::QueryBroker oracle(*instance, mapping, *index, oracleConfig);
      expected.reserve(pool.size());
      for (const auto& terms : pool)
        expected.push_back(
            canonicalBytes(serve::toWireResponse(oracle.execute(terms))));
      oracle.shutdown();
    }

    config.serviceFixedSeconds = spec.serviceFixedSeconds;
    config.servicePerPostingSeconds = spec.servicePerPostingSeconds;
    broker = std::make_unique<serve::QueryBroker>(*instance, mapping, *index, config);
    service = std::make_unique<serve::SearchService>(*broker);
    server = std::make_unique<net::Server>(net::ServerConfig{}, service->handler());
    server->start();
    const std::size_t connections =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    gen = std::make_unique<LoadGen>(server->port(), connections, pool, expected);

    // Warm-up: half a second of distinct pool queries at the reference
    // rate, oracle-checking the execution path itself.
    std::vector<std::uint32_t> all(std::min<std::size_t>(
        pool.size(), static_cast<std::size_t>(spec.referenceRate * 0.5)));
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<std::uint32_t>(i);
    const PassResult warm = gen->run(
        bench::arrivalOffsets(all.size(), spec.referenceRate), all, nullptr, nullptr);
    warmMismatches = warm.mismatches;
    broker->takeObservedLoad();
  }

  ~Stack() {
    gen.reset();
    if (server) server->stop();
    if (broker) broker->shutdown();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<PartitionedIndex> index;
  std::unique_ptr<Instance> instance;
  std::vector<MachineId> mapping;
  serve::ServeConfig config;
  std::vector<std::vector<TermId>> pool;
  std::vector<std::string> expected;
  std::unique_ptr<serve::QueryBroker> broker;
  std::unique_ptr<serve::SearchService> service;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<LoadGen> gen;
  std::size_t warmMismatches = 0;
};

struct Schedule {
  std::vector<double> offsets;
  std::vector<std::uint32_t> picks;
};

/// Reference-rate passes per end-to-end run, and each ladder probe's share
/// of the run's measurement budget.
constexpr std::size_t kReferencePasses = 32;
/// Samples a p99 needs to have ten beyond it.
constexpr std::size_t kTailSamples = 1000;
constexpr double kProbeShare = 0.02;

/// `rate` evenly spaced arrivals per second for `seconds`.
Schedule makeSchedule(double rate, double seconds, std::size_t poolSize,
                      std::uint64_t seed) {
  const auto count = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  return {bench::arrivalOffsets(count, rate), zipfPicks(count, poolSize, seed)};
}

double instanceBottleneck(const Stack& stack) {
  return Assignment(*stack.instance, stack.mapping).bottleneckUtilization();
}

RunResult runEndToEnd(const ServingSpec& spec, const RunOptions& options) {
  RunResult result;
  // Set up three times, keep the last: setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < 3; ++rep) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = std::make_unique<Stack>(spec, options.seed);
    setups.push_back(secondsSince(t0));
    if (stack->warmMismatches > 0)
      result.fail("warm-up answers differed from the oracle");
  }
  std::sort(setups.begin(), setups.end());

  // Reference rate: many short passes, summarised over the quietest ones
  // that together hold enough samples for a p99 (see quietPasses).
  std::vector<std::vector<double>> passes;
  for (std::size_t rep = 0; rep < kReferencePasses; ++rep) {
    const Schedule schedule =
        makeSchedule(spec.referenceRate, options.seconds * 0.5 / kReferencePasses,
                     stack->pool.size(), options.seed * 7 + rep);
    PassResult pass = stack->gen->run(schedule.offsets, schedule.picks, nullptr, nullptr);
    result.attempted += schedule.offsets.size();
    result.failed += pass.failures;
    if (pass.mismatches > 0) result.fail("reference answers differed from the oracle");
    passes.push_back(std::move(pass.latency));
  }
  const Summary latency = quietPasses(passes, kTailSamples);
  result.noteSamples("latency", latency);
  result.details["reference_rate_qps"] = spec.referenceRate;
  // Memory at the operating point, before the ladder overloads the stack.
  result.metrics["peak_rss_mb"] = peakRssMb();

  std::uint64_t probeSeed = options.seed * 1000 + 1;
  std::size_t ladderMismatches = 0;
  const double capacity = ladderCapacity(
      result, geometricLadder(spec.ladderLo, spec.ladderHi, spec.ladderRatio),
      spec.p99LimitSeconds, [&](double rate) {
        const Schedule schedule = makeSchedule(rate, options.seconds * kProbeShare,
                                               stack->pool.size(), probeSeed++);
        PassResult pass =
            stack->gen->run(schedule.offsets, schedule.picks, nullptr, nullptr);
        ladderMismatches += pass.mismatches;
        ProbeOutcome outcome;
        outcome.p99Seconds = windowedP99(pass.latency, kProbeWindows);
        outcome.genLagP99Seconds = windowedP99(pass.genLag, kProbeWindows);
        outcome.failures = pass.failures;
        outcome.backlogGrowing = pass.drainSeconds > spec.p99LimitSeconds;
        return outcome;
      });
  if (ladderMismatches > 0) result.fail("ladder answers differed from the oracle");
  setEndToEnd(result, setups[1], latency.p50, latency.p99, capacity,
              instanceBottleneck(*stack));
  return result;
}

RunResult runTraced(const ServingSpec& spec, const RunOptions& options,
                    SpanStore& spans) {
  RunResult result;
  Stack stack(spec, options.seed);
  if (stack.warmMismatches > 0) result.fail("warm-up answers differed from the oracle");
  const Schedule schedule = makeSchedule(spec.referenceRate, options.seconds * 0.3,
                                         stack.pool.size(), options.seed * 7);
  const std::size_t n = schedule.offsets.size();

  // Untraced and traced socket passes over the same schedule, then the
  // in-process arm over it too.
  const PassResult plain =
      stack.gen->run(schedule.offsets, schedule.picks, nullptr, nullptr);
  const net::ServerStats before = stack.server->stats();
  const serve::CacheStats cacheBefore = stack.broker->cacheStats();
  stack.broker->takeObservedLoad();
  const PassResult traced =
      stack.gen->run(schedule.offsets, schedule.picks, &spans, stack.broker.get());
  LoadTotals load;
  load.add(stack.broker->takeObservedLoad(), *stack.broker);
  const net::ServerStats after = stack.server->stats();
  const serve::CacheStats cacheAfter = stack.broker->cacheStats();
  const std::uint32_t requestName = spans.intern("bench.request.socket");
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = traced.start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(schedule.offsets[i]));
    spans.record(requestName, i + 1, 0, due,
                 due + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(traced.latency[i])));
  }
  const InprocResult inproc = replayInproc(*stack.broker, stack.pool, stack.expected,
                                           schedule.offsets, schedule.picks);
  recordInprocSpans(spans, inproc);

  std::vector<std::uint8_t> wanted(stack.pool.size(), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (traced.executed[i] || inproc.executed[i]) wanted[schedule.picks[i]] = 1;
  const IndexReplay replay = replayIndex(*stack.index, stack.pool, stack.config.topK,
                                         stack.config.bm25, wanted, spans);

  for (const auto* pass : {&plain, &traced})
    if (pass->mismatches > 0) result.fail("socket answers differed from the oracle");
  if (inproc.mismatches > 0) result.fail("in-process answers differed from the oracle");
  result.attempted = 3 * n;
  result.failed = plain.failures + traced.failures + inproc.failures;

  const Summary socketLat = summarize(plain.latency);
  const Summary tracedLat = summarize(traced.latency);
  auto& m = result.metrics;
  // Both arms replay the same arrivals: pairing them arrival by arrival
  // cancels the (paced, per-query) service time out of the difference.
  std::vector<double> transportUs(n);
  for (std::size_t i = 0; i < n; ++i)
    transportUs[i] = (plain.latency[i] - inproc.latency[i]) * 1e6;
  const Summary transport = summarize(std::move(transportUs));
  m["net.transport_us.p50"] = transport.p50;
  m["net.transport_us.p99"] = transport.p99;
  m["net.flush_us.p50"] = summarize(traced.flushUs).p50;
  m["net.drain_us.p50"] = summarize(traced.drainUs).p50;
  m["net.responses_per_drain"] =
      traced.drainsWithReplies > 0 ? static_cast<double>(traced.replies) /
                                         static_cast<double>(traced.drainsWithReplies)
                                   : 0.0;
  m["net.read_pauses"] = static_cast<double>(after.readPauses - before.readPauses);
  m["net.protocol_errors"] =
      static_cast<double>(after.protocolErrors - before.protocolErrors);
  m["net.error_frames"] =
      static_cast<double>(after.errorFramesSent - before.errorFramesSent);

  setSubmitMetrics(result, replay, schedule.picks, inproc);
  setLoadMetrics(result, load);
  m["serve.queue_depth.max"] = static_cast<double>(traced.maxQueueDepth);
  m["serve.cache_entries_invalidated"] =
      static_cast<double>(cacheAfter.entriesInvalidated - cacheBefore.entriesInvalidated);
  setIndexMetrics(result, replay, schedule.picks, traced.executed);

  m["bench.gen_lag_ms.p99"] = summarize(traced.genLag).p99 * 1e3;
  m["bench.trace_overhead_frac"] =
      socketLat.p50 > 0.0 ? tracedLat.p50 / socketLat.p50 - 1.0 : 0.0;
  result.noteSamples("net.transport_us", transport);
  return result;
}

}  // namespace

RunResult runColdScan(const RunOptions& options, SpanStore& spans) {
  return options.trace ? runTraced(kColdScan, options, spans)
                       : runEndToEnd(kColdScan, options);
}

}  // namespace resex::perfbench
