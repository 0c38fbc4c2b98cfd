#include "serve/broker.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"
#include "index/partition.hpp"
#include "index/segment.hpp"
#include "net/frame.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serve/search_service.hpp"

namespace resex::serve {
namespace {

using resex::testing::MiniJson;

PartitionedIndex smallIndex(std::size_t partitions, std::uint64_t seed = 17) {
  SyntheticDocConfig config;
  config.seed = seed;
  config.docCount = 4000;
  config.termCount = 600;
  return PartitionedIndex(config.termCount, generateDocuments(config), partitions);
}

/// `partitions * replication` physical shards on `machines` machines:
/// replica r of partition g is shard g * replication + r, placed on
/// machine (g + r) % machines (distinct per group when replication <=
/// machines).
Instance hostingInstance(std::size_t partitions, std::size_t machines,
                         std::size_t replication = 1) {
  std::vector<Machine> ms(machines);
  for (std::size_t m = 0; m < machines; ++m)
    ms[m] = {static_cast<MachineId>(m), ResourceVector{1.0, 100.0}, false, 0};
  const std::size_t n = partitions * replication;
  std::vector<Shard> shards(n);
  std::vector<MachineId> initial(n);
  std::vector<std::uint32_t> groups(n);
  for (std::size_t g = 0; g < partitions; ++g) {
    for (std::size_t r = 0; r < replication; ++r) {
      const std::size_t s = g * replication + r;
      shards[s] = {static_cast<ShardId>(s), ResourceVector{0.01, 1.0}, 1.0};
      initial[s] = static_cast<MachineId>((g + r) % machines);
      groups[s] = static_cast<std::uint32_t>(g);
    }
  }
  return Instance(2, std::move(ms), std::move(shards), std::move(initial),
                  0, ResourceVector{1.0, 1.0}, std::move(groups));
}

std::vector<TermId> query(std::initializer_list<TermId> terms) { return terms; }

/// The result frame a client receives, with the cache-hit flag cleared so a
/// hit and a computed answer compare byte for byte.
std::string wireBytes(const QueryResult& result) {
  net::QueryResponse response = toWireResponse(result);
  response.cacheHit = false;
  std::string out;
  net::encodeResultFrame(0, response, out);
  return out;
}

/// Publishes the broker's placement with `shard` moved from `from` to `to`
/// (served from `replacement` when given).
void publishMove(QueryBroker& broker, ShardId shard, MachineId from, MachineId to,
                 std::shared_ptr<const InvertedIndex> replacement = nullptr) {
  broker.publish(broker.placement()->withMove(shard, from, to, std::move(replacement)));
}

/// Asserts `result` is the complete PartitionedIndex answer for `terms`.
void expectOracle(const PartitionedIndex& index, const QueryResult& result,
                  const std::vector<TermId>& terms, const ServeConfig& config) {
  ASSERT_TRUE(result.complete);
  const auto reference = index.searchTopK(terms, config.topK, config.bm25);
  ASSERT_EQ(result.docs.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.docs[i].doc, reference[i].doc);
    EXPECT_NEAR(result.docs[i].score, reference[i].score, 1e-9);
  }
}

TEST(QueryBroker, CompleteResultsMatchPartitionedSearch) {
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 2);
  ServeConfig config;
  config.topK = 10;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  for (const auto& q :
       {query({0, 7}), query({25, 3, 110}), query({599}), query({42, 42})}) {
    const QueryResult result = broker.execute(q);
    EXPECT_EQ(result.partitionsAnswered, 4u);
    expectOracle(index, result, q, config);
  }
}

TEST(QueryBroker, DeadlineExpiryDegradesToPartialResult) {
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 1);  // all partitions serialized
  ServeConfig config;
  config.deadlineSeconds = 0.05;
  config.serviceFixedSeconds = 0.03;  // 4 tasks want 120 ms > the deadline
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  const QueryResult result = broker.execute(query({1, 2}));
  EXPECT_FALSE(result.complete);
  EXPECT_LT(result.partitionsAnswered, 4u);
  EXPECT_GE(result.latencySeconds, 0.04);
  // The client came back at its deadline; the shed tail may still be
  // draining, so accumulate snapshots until all four tasks account.
  std::uint64_t executed = 0, shed = 0, expired = 0;
  for (int spins = 0; executed + shed < 4 && spins < 200; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ObservedLoad load = broker.takeObservedLoad();
    shed += load.shedTasks;
    expired += load.expiredQueries;
    for (const auto t : load.shardTasks) executed += t;
  }
  EXPECT_EQ(expired, 1u);
  // The tail tasks were shed, not executed: work attribution stays honest.
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(executed + shed, 4u);
}

TEST(QueryBroker, IncompleteResultsAreNeverCached) {
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 1);
  ServeConfig config;
  config.cacheCapacity = 64;
  config.deadlineSeconds = 0.05;
  config.serviceFixedSeconds = 0.03;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  EXPECT_FALSE(broker.execute(query({3})).complete);
  // A later, unhurried identical query must recompute, not replay the
  // degraded answer.
  EXPECT_FALSE(broker.execute(query({3})).cacheHit);
}

TEST(QueryBroker, DepthRoutingUsesBothReplicas) {
  // One partition, two replicas on two machines. Routing reads live queue
  // depths, so concurrent paced traffic must spill onto the second replica
  // instead of serializing behind the tie-break favourite.
  const PartitionedIndex index = smallIndex(1);
  const Instance instance = hostingInstance(1, 2, /*replication=*/2);
  ServeConfig config;
  config.serviceFixedSeconds = 0.002;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&] {
      for (int i = 0; i < 50; ++i) broker.execute(query({static_cast<TermId>(i)}));
    });
  for (std::thread& t : clients) t.join();
  const ObservedLoad load = broker.takeObservedLoad();
  const std::uint64_t total = load.shardTasks[0] + load.shardTasks[1];
  EXPECT_EQ(total, 200u);
  EXPECT_GT(load.shardTasks[0], total / 5);
  EXPECT_GT(load.shardTasks[1], total / 5);
}

TEST(QueryBroker, ObservedLoadWindowsResetBetweenSnapshots) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 1);
  QueryBroker broker(instance, instance.initialAssignment(), index, {});
  for (int i = 0; i < 10; ++i) broker.execute(query({static_cast<TermId>(i)}));
  const ObservedLoad first = broker.takeObservedLoad();
  EXPECT_EQ(first.queries, 10u);
  EXPECT_EQ(first.machineTasks[0], 20u);
  EXPECT_EQ(first.shardTasks[0] + first.shardTasks[1], 20u);
  EXPECT_GT(first.windowSeconds, 0.0);
  EXPECT_GT(first.p50, 0.0);
  const ObservedLoad second = broker.takeObservedLoad();
  EXPECT_EQ(second.queries, 0u);
  EXPECT_EQ(second.machineTasks[0], 0u);
  EXPECT_EQ(second.shardTasks[0], 0u);
}

TEST(QueryBroker, PacingChargesConfiguredServiceTime) {
  const PartitionedIndex index = smallIndex(1);
  const Instance instance = hostingInstance(1, 1);
  ServeConfig config;
  config.serviceFixedSeconds = 0.005;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) broker.execute(query({static_cast<TermId>(i)}));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  const ObservedLoad load = broker.takeObservedLoad();
  // 20 paced tasks at 5 ms each: the machine was held busy ~100 ms, and the
  // serialized wall clock cannot beat the emulated service rate.
  EXPECT_GE(load.machineBusySeconds[0], 0.095);
  EXPECT_LT(load.machineBusySeconds[0], 0.5);
  EXPECT_GE(wall.count(), 0.09);
  EXPECT_NEAR(load.shardBusySeconds[0], load.machineBusySeconds[0], 1e-6);
}

TEST(QueryBroker, CleanShutdownWithQueriesInFlight) {
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 2);
  ServeConfig config;
  config.serviceFixedSeconds = 0.004;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  std::atomic<int> cancelled{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const QueryResult result = broker.execute(query({static_cast<TermId>(i)}));
        if (result.cancelled) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Accepted queries always resolve: every routed task is either
          // drained by a worker or refused at push, so no client hangs.
          EXPECT_EQ(result.partitionsTotal, 4u);
        }
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  broker.shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_GT(cancelled.load(), 0);
  EXPECT_TRUE(broker.execute(query({1})).cancelled);
  // Tokens are conserved: the drain returned every one.
  EXPECT_EQ(broker.tokenBank()->freeTokens(), broker.tokenBank()->totalTokens());
}

TEST(QueryBroker, TracingProducesSpanTreesForKeptQueries) {
  obs::TraceRegistry::global().clear();
  obs::TraceRegistry::global().setEnabled(true);
  {
    const PartitionedIndex index = smallIndex(4);
    const Instance instance = hostingInstance(4, 2);
    ServeConfig config;
    config.tracing = true;
    config.traceKeepSlowestOf = 4;
    QueryBroker broker(instance, instance.initialAssignment(), index, config);
    for (int i = 0; i < 12; ++i)
      EXPECT_TRUE(broker.execute(query({static_cast<TermId>(i)})).complete);

    const std::vector<obs::TraceRecord> traces =
        obs::TraceRegistry::global().recentTraces();
    ASSERT_FALSE(traces.empty());
    EXPECT_LT(traces.size(), 12u);  // tail sampling dropped the fast majority
    const obs::TraceRecord& trace = traces.front();
    // The kept trace carries the whole query tree: root, route, one
    // exec span per partition, and the merge, all under one trace id.
    std::uint32_t rootSpanId = 0;
    std::size_t execSpans = 0;
    bool sawRoute = false, sawMerge = false;
    for (const obs::RichSpan& span : trace.spans) {
      EXPECT_EQ(span.traceId, trace.traceId);
      const std::string name = span.name;
      if (name == "query") rootSpanId = span.spanId;
      if (name == "query.route") sawRoute = true;
      if (name == "query.merge") sawMerge = true;
      if (name == "task.exec") ++execSpans;
    }
    ASSERT_NE(rootSpanId, 0u);
    EXPECT_TRUE(sawRoute);
    EXPECT_TRUE(sawMerge);
    EXPECT_EQ(execSpans, 4u);
    for (const obs::RichSpan& span : trace.spans) {
      if (std::string(span.name) == "task.exec") {
        EXPECT_EQ(span.parentSpanId, rootSpanId);
      }
    }
    broker.shutdown();
  }
  obs::TraceRegistry::global().setEnabled(false);
  obs::TraceRegistry::global().clear();
  obs::TraceRegistry::global().setKeepSlowestOf(64);
}

TEST(QueryBroker, IntrospectionHeatMatchesObservedLoad) {
  const PartitionedIndex index = smallIndex(3);
  const Instance instance = hostingInstance(3, 2);
  QueryBroker broker(instance, instance.initialAssignment(), index, {});
  for (int i = 0; i < 15; ++i) broker.execute(query({static_cast<TermId>(i)}));

  // peek must not consume the window...
  const ObservedLoad peeked = broker.peekObservedLoad();
  EXPECT_EQ(peeked.queries, 15u);

  // ...so the JSON views report the same attribution the controller sees.
  const auto shards = MiniJson::flatten(broker.shardsJson());
  ASSERT_EQ(shards.at("shards/#size"), "3");
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string base = "shards/" + std::to_string(s) + "/";
    EXPECT_EQ(shards.at(base + "shard"), std::to_string(s));
    EXPECT_EQ(shards.at(base + "tasks"), std::to_string(peeked.shardTasks[s]));
    EXPECT_EQ(shards.at(base + "machine"),
              std::to_string(broker.mapping()[s]));
    const InvertedIndex& shard = index.shard(instance.replicaGroupOf(s));
    EXPECT_EQ(shards.at(base + "index_bytes"), std::to_string(shard.indexBytes()));
    EXPECT_EQ(shards.at(base + "resident_bytes"),
              std::to_string(shard.residentBytes()));
  }
  const auto debug = MiniJson::flatten(broker.debugJson());
  EXPECT_EQ(debug.at("queries"), "15");
  EXPECT_EQ(debug.at("machines/#size"), "2");

  // The real harvest still sees everything peek left in place.
  const ObservedLoad taken = broker.takeObservedLoad();
  EXPECT_EQ(taken.queries, 15u);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(taken.shardTasks[s], peeked.shardTasks[s]);
  EXPECT_EQ(broker.takeObservedLoad().queries, 0u);
}

TEST(QueryBroker, PublishedMoveRemapsRoutingAndResetsHeat) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);  // shard g on machine g
  ServeConfig config;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  for (int i = 0; i < 8; ++i) broker.execute(query({static_cast<TermId>(i)}));
  const ObservedLoad before = broker.peekObservedLoad();
  EXPECT_GT(before.shardTasks[0], 0u);
  EXPECT_GT(before.shardTasks[1], 0u);

  publishMove(broker, 0, 0, 1);
  EXPECT_EQ(broker.mapping()[0], 1u);
  EXPECT_EQ(broker.mapping()[1], 1u);

  // Heat attribution for the moved shard restarts from zero (the departed
  // replica's history must not bias the next replan); the other shard's
  // window survives untouched.
  const ObservedLoad after = broker.peekObservedLoad();
  EXPECT_EQ(after.shardTasks[0], 0u);
  EXPECT_EQ(after.shardTasks[1], before.shardTasks[1]);
  const auto shards = MiniJson::flatten(broker.shardsJson());
  EXPECT_EQ(shards.at("shards/0/machine"), "1");
  EXPECT_EQ(shards.at("shards/0/tasks"), "0");

  // Serving continues on the new placement with oracle-identical results.
  const auto q = query({5, 9});
  expectOracle(index, broker.execute(q), q, config);
}

TEST(QueryBroker, PublishedMoveKeepsCachedResults) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  ServeConfig config;
  config.cacheCapacity = 64;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  config.cacheCapacity = 0;
  QueryBroker uncached(instance, instance.initialAssignment(), index, config);
  broker.execute(query({3, 4}));
  EXPECT_TRUE(broker.execute(query({3, 4})).cacheHit);

  // With one replica per partition every cached entry was served by shard
  // 1; the move keeps it, and the hit is what a fresh computation returns.
  publishMove(broker, 1, 1, 0);
  publishMove(uncached, 1, 1, 0);
  const CacheStats stats = broker.cacheStats();
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.entriesInvalidated, 0u);
  EXPECT_EQ(stats.admitted, 1u);
  const QueryResult hit = broker.execute(query({3, 4}));
  EXPECT_TRUE(hit.cacheHit);
  const QueryResult computed = uncached.execute(query({3, 4}));
  EXPECT_FALSE(computed.cacheHit);
  EXPECT_EQ(wireBytes(hit), wireBytes(computed));
}

TEST(QueryBroker, ResultRoutedBeforeAPublishIsCached) {
  // Paced slowly, the query is still executing on the old placement when
  // shard 1 moves. Its result is the same on either side of the move, so
  // it fills the cache and later clients are served the oracle's answer.
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  ServeConfig config;
  config.cacheCapacity = 64;
  config.serviceFixedSeconds = 0.1;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<QueryResult> first;
  broker.submit(query({3, 4}), {}, [&](QueryResult result) {
    std::lock_guard lock(mutex);
    first = std::move(result);
    cv.notify_one();
  });
  publishMove(broker, 1, 1, 0);  // submit returned: the query is routed
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return first.has_value(); });
  }
  expectOracle(index, *first, query({3, 4}), config);
  const QueryResult hit = broker.execute(query({3, 4}));
  EXPECT_TRUE(hit.cacheHit);
  expectOracle(index, hit, query({3, 4}), config);
  EXPECT_EQ(wireBytes(hit), wireBytes(*first));
}

TEST(QueryBroker, PlacementMoveRejectsAReplacementWithOtherContent) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("broker_test." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto segmentIndex = [&](std::uint32_t partition, const std::string& name) {
    const std::string path = (dir / name).string();
    writeSegment(index.shard(partition), path);
    return std::make_shared<const InvertedIndex>(
        std::make_shared<const MappedSegment>(path));
  };
  ServeConfig config;
  config.cacheCapacity = 64;
  QueryBroker broker(instance, instance.initialAssignment(), index, config,
                     {segmentIndex(0, "s0.seg"), segmentIndex(1, "s1.seg")});
  broker.execute(query({3, 4}));

  // Partition 0's segment is valid, but it is not shard 1's content.
  EXPECT_THROW(publishMove(broker, 1, 1, 0, segmentIndex(0, "wrong.seg")),
               std::invalid_argument);
  EXPECT_EQ(broker.mapping(), instance.initialAssignment());
  EXPECT_EQ(broker.cacheStats().entriesInvalidated, 0u);
  const QueryResult hit = broker.execute(query({3, 4}));
  EXPECT_TRUE(hit.cacheHit);
  expectOracle(index, hit, query({3, 4}), config);

  // A copy of shard 1's own content is accepted, and serving stays exact.
  const auto retired = broker.placement()->index(1);
  const auto copy = segmentIndex(1, "copy.seg");
  publishMove(broker, 1, 1, 0, copy);
  EXPECT_NE(retired, copy);
  EXPECT_EQ(broker.placement()->index(1), copy);
  EXPECT_EQ(broker.mapping()[1], 0u);
  expectOracle(index, broker.execute(query({5, 9})), query({5, 9}), config);
  broker.shutdown();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(QueryBroker, ReorderedAndRepeatedTermsHitTheCanonicalEntry) {
  const PartitionedIndex index = smallIndex(3);
  const Instance instance = hostingInstance(3, 2);
  ServeConfig config;
  config.cacheCapacity = 64;
  QueryBroker cached(instance, instance.initialAssignment(), index, config);
  config.cacheCapacity = 0;
  QueryBroker uncached(instance, instance.initialAssignment(), index, config);
  EXPECT_FALSE(cached.execute(query({5, 9})).cacheHit);
  for (const auto& q : {query({9, 5}), query({5, 5, 9}), query({5, 9})}) {
    const QueryResult hit = cached.execute(q);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(wireBytes(hit), wireBytes(uncached.execute(q)));
  }
  EXPECT_EQ(cached.cacheStats().admitted, 1u);
}

TEST(QueryBroker, DebugJsonReportsTheResultCache) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  ServeConfig config;
  config.cacheCapacity = 12;
  config.cacheShards = 1;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  for (TermId t = 0; t < 14; ++t) broker.execute(query({t}));  // 12 fit, 2 rejected
  broker.execute(query({3}));                                   // a hit
  publishMove(broker, 0, 0, 1);                                 // keeps all 12
  auto debug = MiniJson::flatten(broker.debugJson());
  EXPECT_EQ(debug.at("cache/capacity"), "12");
  EXPECT_EQ(debug.at("cache/entries"), "12");
  EXPECT_EQ(debug.at("cache/hits"), "1");
  EXPECT_EQ(debug.at("cache/misses"), "14");
  EXPECT_EQ(debug.at("cache/admitted"), "12");
  EXPECT_EQ(debug.at("cache/rejections"), "2");
  EXPECT_EQ(debug.at("cache/evictions"), "0");
  EXPECT_EQ(debug.at("cache/entries_invalidated"), "0");
  broker.clearCache();  // the one invalidation: full teardown
  debug = MiniJson::flatten(broker.debugJson());
  EXPECT_EQ(debug.at("cache/entries"), "0");
  EXPECT_EQ(debug.at("cache/entries_invalidated"), "12");
  EXPECT_EQ(broker.cacheStats().invalidations, 1u);
  // /metrics sums every cache in the process, so only lower bounds hold.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  EXPECT_GE(registry.counter("serve.cache_rejections").get(), 2u);
  EXPECT_GE(registry.counter("serve.cache_entries_invalidated").get(), 12u);
  EXPECT_GE(registry.gauge("serve.cache_capacity").get(), 12.0);
}

TEST(QueryBroker, PlacementMoveValidatesArguments) {
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  QueryBroker broker(instance, instance.initialAssignment(), index, {});
  EXPECT_THROW(publishMove(broker, 0, 1, 1), std::invalid_argument);  // wrong from
  EXPECT_THROW(publishMove(broker, 9, 0, 1), std::invalid_argument);  // no such shard
  EXPECT_THROW(publishMove(broker, 0, 0, 9), std::invalid_argument);  // no such machine
  // A placement must be shaped for this broker's cluster.
  EXPECT_THROW(broker.publish(nullptr), std::invalid_argument);
  const Instance wider = hostingInstance(2, 3);
  EXPECT_THROW(broker.publish(std::make_shared<const Placement>(
                   wider, wider.initialAssignment(), broker.placement()->indexes())),
               std::invalid_argument);
  EXPECT_EQ(broker.mapping()[0], 0u);  // rejected moves leave routing alone
}

TEST(QueryBroker, SloClassRecordsEveryQuery) {
  obs::SloRegistry::global().reset();
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 1);
  ServeConfig config;
  config.sloClass = "test.broker";
  config.slo.p99TargetSeconds = 10.0;  // nothing breaches
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  for (int i = 0; i < 8; ++i) broker.execute(query({static_cast<TermId>(i)}));
  const obs::SloWindow* window = obs::SloRegistry::global().find("test.broker");
  ASSERT_NE(window, nullptr);
  const obs::SloSnapshot snap = window->snapshot();
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.latencyBreaches, 0u);
  EXPECT_GT(snap.p99, 0.0);
  // sloClass is the implicit tenant's window; explicit tenants name their
  // own, so setting both is a configuration error.
  ServeConfig both = config;
  both.tenants.emplace_back().name = "a";
  EXPECT_THROW(QueryBroker(instance, instance.initialAssignment(), index, both),
               std::invalid_argument);
  obs::SloRegistry::global().reset();
}

}  // namespace
}  // namespace resex::serve
