// Multi-tenant QueryBroker end-to-end: token admission, per-tenant
// accounting, waiting for a slot, and the /debug/tenants JSON.
#include "serve/broker.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"
#include "index/partition.hpp"
#include "obs/slo.hpp"

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

TenantSpec tenant(std::string name, double weight, double guarantee,
                  double burst) {
  TenantSpec s;
  s.name = std::move(name);
  s.weight = weight;
  s.guaranteedShare = guarantee;
  s.burstLimit = burst;
  s.slo.p99TargetSeconds = 10.0;
  return s;
}

std::vector<TermId> query(std::initializer_list<TermId> terms) { return terms; }

/// Tokens released by workers lag delivery by a moment; wait for them.
void awaitAllTokensFree(const QueryBroker& broker) {
  const TokenBank* bank = broker.tokenBank();
  ASSERT_NE(bank, nullptr);
  for (int spins = 0;
       bank->freeTokens() != bank->totalTokens() && spins < 500; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(bank->freeTokens(), bank->totalTokens());
}

TEST(QueryBrokerTenants, ServesCorrectResultsAndAttributesPerTenant) {
  obs::SloRegistry::global().reset();
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 2);
  ServeConfig config;
  config.tenants = {tenant("interactive", 4.0, 0.5, 1.0),
                    tenant("batch", 1.0, 0.1, 2.0)};
  // Every query needs one token per partition (4): keep each tenant's cap
  // comfortably above that so admission is not the subject here (8 tokens
  // per 1-worker machine).
  config.queueCapacity = 7;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);

  for (int i = 0; i < 6; ++i) {
    const QueryResult r = broker.execute(query({static_cast<TermId>(i)}), 0);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(r.tenant, 0u);
  }
  for (int i = 0; i < 3; ++i) {
    const QueryResult r =
        broker.execute(query({static_cast<TermId>(100 + i)}), 1);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.tenant, 1u);
  }
  // Results stay oracle-identical with several tenants.
  const auto q = query({25, 3, 110});
  const QueryResult result = broker.execute(q, 1);
  const auto reference = index.searchTopK(q, config.topK, config.bm25);
  ASSERT_EQ(result.docs.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(result.docs[i].doc, reference[i].doc);

  awaitAllTokensFree(broker);
  const ObservedLoad load = broker.takeObservedLoad();
  ASSERT_EQ(load.tenants.size(), 2u);
  EXPECT_EQ(load.tenants[0].name, "interactive");
  EXPECT_EQ(load.tenants[0].queries, 6u);
  EXPECT_EQ(load.tenants[1].queries, 4u);
  // Per-tenant task/posting heat sums to the per-shard totals.
  EXPECT_EQ(load.tenants[0].tasks, 24u);  // 6 queries x 4 partitions
  EXPECT_EQ(load.tenants[1].tasks, 16u);
  EXPECT_GT(load.tenants[0].p99, 0.0);

  // Per-tenant SLO classes registered and recording under default names.
  const obs::SloWindow* window =
      obs::SloRegistry::global().find("tenant.interactive");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->snapshot().total, 6u);
  EXPECT_THROW(broker.execute(q, 7), std::out_of_range);
  obs::SloRegistry::global().reset();
}

TEST(QueryBrokerTenants, OverShareTenantIsRejectedAtAdmissionNotShed) {
  obs::SloRegistry::global().reset();
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  ServeConfig config;
  // "blocked" has no guarantee and burstLimit 0: cap 0 tokens, so every
  // query it offers is turned away at admission while "served" is
  // untouched — and crucially nothing of "blocked" ever reaches a queue.
  config.tenants = {tenant("served", 1.0, 0.5, 1.0),
                    tenant("blocked", 1.0, 0.0, 0.0)};
  QueryBroker broker(instance, instance.initialAssignment(), index, config);

  const QueryResult rejected = broker.execute(query({5}), 1);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_FALSE(rejected.complete);
  EXPECT_EQ(rejected.partitionsAnswered, 0u);
  EXPECT_TRUE(rejected.docs.empty());

  const QueryResult served = broker.execute(query({5}), 0);
  EXPECT_TRUE(served.complete);
  EXPECT_FALSE(served.rejected);

  awaitAllTokensFree(broker);
  const ObservedLoad load = broker.takeObservedLoad();
  EXPECT_EQ(load.tenants[1].rejectedOverShare, 1u);
  EXPECT_EQ(load.tenants[1].rejectedNoToken, 0u);
  EXPECT_EQ(load.tenants[1].tasks, 0u);      // no queue pollution
  EXPECT_EQ(load.tenants[1].shedTasks, 0u);  // rejected != shed
  EXPECT_EQ(load.tenants[0].rejectedOverShare, 0u);
  // The rejection burned error budget but left latency quantiles alone.
  const obs::SloWindow* window = obs::SloRegistry::global().find("tenant.blocked");
  ASSERT_NE(window, nullptr);
  const obs::SloSnapshot snap = window->snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.errors, 1u);
  EXPECT_EQ(load.tenants[1].queries, 1u);
  obs::SloRegistry::global().reset();
}

TEST(QueryBrokerTenants, MissedPushesDegradeOncePerTenantAndReturnTokens) {
  obs::SloRegistry::global().reset();
  // One machine, one worker, four tokens: a query without a deadline holds
  // every token through 4 x 50 ms of paced service, so a second query with
  // an 80 ms deadline waits for a slot, gives up at its deadline instead of
  // hanging, is counted exactly once, and every token comes home.
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 1);
  ServeConfig config;
  config.queueCapacity = 3;
  config.serviceFixedSeconds = 0.05;
  config.tenants = {tenant("only", 1.0, 1.0, 1.0)};
  QueryBroker broker(instance, instance.initialAssignment(), index, config);

  std::atomic<bool> firstDone{false};
  SubmitOptions holder;
  holder.deadlineSeconds = 0.0;
  broker.submit(query({3}), holder, [&](QueryResult r) {
    EXPECT_TRUE(r.complete);
    firstDone.store(true);
  });
  SubmitOptions waiter;
  waiter.deadlineSeconds = 0.08;
  const auto t0 = std::chrono::steady_clock::now();
  QueryResult result;
  EXPECT_FALSE(broker.submit(query({1, 2}), waiter,
                             [&](QueryResult r) { result = std::move(r); }));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.rejected);  // never admitted: no slot by the deadline
  EXPECT_EQ(result.partitionsAnswered, 0u);
  // The client returned at its deadline, not after the first query's
  // 200 ms of service.
  EXPECT_GE(wall.count(), 0.07);
  EXPECT_LT(wall.count(), 1.0);

  for (int spins = 0; !firstDone.load() && spins < 500; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(firstDone.load());
  awaitAllTokensFree(broker);
  const ObservedLoad load = broker.takeObservedLoad();
  ASSERT_EQ(load.tenants.size(), 1u);
  EXPECT_EQ(load.tenants[0].rejectedNoToken, 1u);
  EXPECT_EQ(load.tenants[0].expiredQueries, 0u);
  EXPECT_EQ(load.tenants[0].queries, 2u);
  obs::SloRegistry::global().reset();
}

TEST(QueryBrokerTenants, ShutdownWithTenantTrafficReturnsEveryToken) {
  obs::SloRegistry::global().reset();
  const PartitionedIndex index = smallIndex(4);
  const Instance instance = hostingInstance(4, 2);
  ServeConfig config;
  config.serviceFixedSeconds = 0.004;
  config.tenants = {tenant("a", 2.0, 0.3, 1.5), tenant("b", 1.0, 0.2, 1.5)};
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  std::atomic<int> cancelled{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < 25; ++i) {
        const QueryResult r = broker.execute(
            query({static_cast<TermId>(i)}), static_cast<TenantId>(c % 2));
        if (r.cancelled) cancelled.fetch_add(1, std::memory_order_relaxed);
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  broker.shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_GT(cancelled.load(), 0);
  // Drain-on-close popped every accepted task, so workers (and clients,
  // for pushes the closed queues refused) returned every token.
  const TokenBank* bank = broker.tokenBank();
  ASSERT_NE(bank, nullptr);
  EXPECT_EQ(bank->freeTokens(), bank->totalTokens());
  obs::SloRegistry::global().reset();
}

TEST(QueryBrokerTenants, TenantsJsonReportsSpecTokensAndHeat) {
  obs::SloRegistry::global().reset();
  const PartitionedIndex index = smallIndex(2);
  const Instance instance = hostingInstance(2, 2);
  ServeConfig config;
  config.workersPerMachine = 2;
  config.queueCapacity = 4;
  config.tenants = {tenant("interactive", 4.0, 0.5, 1.0),
                    tenant("batch", 1.0, 0.0, 2.0)};
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  for (int i = 0; i < 5; ++i) broker.execute(query({static_cast<TermId>(i)}), 0);
  broker.execute(query({50}), 1);
  awaitAllTokensFree(broker);

  const auto json = MiniJson::flatten(broker.tenantsJson());
  EXPECT_EQ(json.at("total_tokens"), "12");  // 2 machines x (2 workers + 4)
  EXPECT_EQ(json.at("free_tokens"), "12");
  ASSERT_EQ(json.at("tenants/#size"), "2");
  EXPECT_EQ(json.at("tenants/0/name"), "interactive");
  EXPECT_EQ(json.at("tenants/0/slo_class"), "tenant.interactive");
  EXPECT_EQ(json.at("tenants/0/queries"), "5");
  EXPECT_EQ(json.at("tenants/0/held_tokens"), "0");
  EXPECT_EQ(json.at("tenants/0/entitled_tokens"), "6");  // 0.5 x 12
  EXPECT_EQ(json.at("tenants/1/queries"), "1");
  EXPECT_EQ(json.at("tenants/0/slo/total"), "5");
  EXPECT_EQ(json.at("tenants/0/slo/errors"), "0");

  // A default broker reports its implicit tenant, which owns every token:
  // 2 machines x (1 worker + 1024 queued).
  QueryBroker plain(instance, instance.initialAssignment(), index, {});
  plain.execute(query({7}));
  awaitAllTokensFree(plain);
  const auto plainJson = MiniJson::flatten(plain.tenantsJson());
  EXPECT_EQ(plainJson.at("total_tokens"), "2050");
  EXPECT_EQ(plainJson.at("free_tokens"), "2050");
  ASSERT_EQ(plainJson.at("tenants/#size"), "1");
  EXPECT_EQ(plainJson.at("tenants/0/name"), "default");
  EXPECT_EQ(plainJson.at("tenants/0/queries"), "1");
  EXPECT_EQ(plainJson.at("tenants/0/cap_tokens"), "2050");
  EXPECT_EQ(plainJson.count("tenants/0/slo_class"), 0u);  // no sloClass set
  obs::SloRegistry::global().reset();
}

}  // namespace
}  // namespace resex::serve
