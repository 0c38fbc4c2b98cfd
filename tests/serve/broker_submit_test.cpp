// Regression suite for the async submit() contract: the completion
// callback fires exactly once per call on *every* path — cache hit,
// normal completion, deadline expiry, and forced slot rejection. The
// transport layer (net::Server) keys per-connection in-flight accounting
// on this; a double or missing callback corrupts request matching.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/broker.hpp"

namespace resex::serve {
namespace {

PartitionedIndex tinyIndex(std::size_t partitions) {
  SyntheticDocConfig config;
  config.seed = 23;
  config.docCount = 1500;
  config.termCount = 300;
  return PartitionedIndex(config.termCount, generateDocuments(config), partitions);
}

Instance tinyInstance(std::size_t partitions, std::size_t machines) {
  std::vector<Machine> ms(machines);
  for (std::size_t m = 0; m < machines; ++m)
    ms[m] = {static_cast<MachineId>(m), ResourceVector{1.0, 100.0}, false, 0};
  std::vector<Shard> shards(partitions);
  std::vector<MachineId> initial(partitions);
  for (std::size_t s = 0; s < partitions; ++s) {
    shards[s] = {static_cast<ShardId>(s), ResourceVector{0.01, 1.0}, 1.0};
    initial[s] = static_cast<MachineId>(s % machines);
  }
  return Instance(2, std::move(ms), std::move(shards), std::move(initial), 0,
                  ResourceVector{1.0, 1.0});
}

/// Counts completions per submit; any slot != 1 at the end is a bug.
class CompletionLedger {
 public:
  explicit CompletionLedger(std::size_t slots) : counts_(slots, 0) {}

  QueryCompletion callback(std::size_t slot) {
    return [this, slot](QueryResult result) {
      std::lock_guard lock(mutex_);
      ++counts_[slot];
      ++total_;
      results_.resize(counts_.size());
      results_[slot] = std::move(result);
    };
  }

  bool waitForTotal(std::size_t n, std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (;;) {
      {
        std::lock_guard lock(mutex_);
        if (total_ >= n) return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  bool waitForAll(std::chrono::milliseconds budget) {
    std::size_t slots;
    {
      std::lock_guard lock(mutex_);
      slots = counts_.size();
    }
    return waitForTotal(slots, budget);
  }

  /// Every slot exactly one, no strays. Call after waitForAll plus a
  /// settle delay so a late double-fire would be caught.
  void expectExactlyOnce() {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < counts_.size(); ++i)
      EXPECT_EQ(counts_[i], 1) << "submit slot " << i;
    EXPECT_EQ(total_, counts_.size());
  }

  QueryResult result(std::size_t slot) {
    std::lock_guard lock(mutex_);
    return results_.at(slot);
  }

 private:
  std::mutex mutex_;
  std::vector<int> counts_;
  std::vector<QueryResult> results_;
  std::size_t total_ = 0;
};

TEST(BrokerSubmit, CompletionFiresExactlyOnceUnderForcedRejection) {
  // One slow machine with two execution slots (one worker, a one-task
  // queue) and non-waiting submits: most submits find no free slot,
  // exercising the rejection path where the submitting thread itself must
  // deliver the completion.
  const PartitionedIndex index = tinyIndex(2);
  const Instance instance = tinyInstance(2, 1);
  ServeConfig config;
  config.queueCapacity = 1;
  config.serviceFixedSeconds = 0.002;
  config.cacheCapacity = 0;  // every query must take the queue path
  QueryBroker broker(instance, instance.initialAssignment(), index, config);

  constexpr std::size_t kSubmits = 200;
  CompletionLedger ledger(kSubmits);
  SubmitOptions options;
  options.waitForQueue = false;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kSubmits; ++i) {
    const std::vector<TermId> terms = {static_cast<TermId>(i % 250),
                                       static_cast<TermId>((i * 7) % 250)};
    if (!broker.submit(terms, options, ledger.callback(i))) ++rejected;
  }
  ASSERT_TRUE(ledger.waitForAll(std::chrono::seconds(30)));
  // A slow double-fire from the worker or timer thread would land here.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ledger.expectExactlyOnce();
  // The forcing worked: with two slots and 2ms service time the burst
  // cannot all fit. (If this ever flakes the setup lost its bite.)
  EXPECT_GT(rejected, 0u);
  broker.shutdown();
}

TEST(BrokerSubmit, CompletionFiresOnceOnCacheHitAndMiss) {
  const PartitionedIndex index = tinyIndex(2);
  const Instance instance = tinyInstance(2, 2);
  ServeConfig config;
  config.cacheCapacity = 64;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  CompletionLedger ledger(2);
  const std::vector<TermId> terms = {5, 40};
  ASSERT_TRUE(broker.submit(terms, SubmitOptions{}, ledger.callback(0)));
  ASSERT_TRUE(ledger.waitForTotal(1, std::chrono::seconds(10)));
  // Second submit of the same query completes inline from the cache.
  ASSERT_TRUE(broker.submit(terms, SubmitOptions{}, ledger.callback(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ledger.expectExactlyOnce();
  EXPECT_FALSE(ledger.result(0).cacheHit);
  EXPECT_TRUE(ledger.result(1).cacheHit);
  EXPECT_TRUE(ledger.result(1).complete);
  broker.shutdown();
}

TEST(BrokerSubmit, CompletionFiresOnceOnDeadlineExpiry) {
  // Serialized slow partitions against a short deadline: the timer
  // thread delivers a partial result, and nobody delivers a second one
  // when the shed tail finishes draining.
  const PartitionedIndex index = tinyIndex(4);
  const Instance instance = tinyInstance(4, 1);
  ServeConfig config;
  config.serviceFixedSeconds = 0.03;
  config.cacheCapacity = 0;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  CompletionLedger ledger(1);
  SubmitOptions options;
  options.deadlineSeconds = 0.05;  // 4 tasks want 120 ms
  broker.submit({1, 2}, options, ledger.callback(0));
  ASSERT_TRUE(ledger.waitForAll(std::chrono::seconds(10)));
  EXPECT_FALSE(ledger.result(0).complete);
  // Let the remaining tasks drain; their workers must not re-complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ledger.expectExactlyOnce();
  broker.shutdown();
}

TEST(BrokerSubmit, DeadlineHeapDoesNotRetainDeliveredQueries) {
  // Long client deadlines must not pin completed queries in the timer
  // heap until expiry: with 30 s deadlines the heap would otherwise grow
  // as deadline x QPS and retain every query's terms and partials — a
  // multi-GB vector any client can trigger. Delivered entries die with
  // their last task reference and get compacted out, so after the burst
  // the heap holds at most one compaction window of dead entries.
  const PartitionedIndex index = tinyIndex(2);
  const Instance instance = tinyInstance(2, 2);
  ServeConfig config;
  config.cacheCapacity = 0;  // every query arms a deadline
  config.deadlineSeconds = 30.0;
  QueryBroker broker(instance, instance.initialAssignment(), index, config);
  constexpr std::size_t kQueries = 5000;
  for (std::size_t i = 0; i < kQueries; ++i)
    broker.execute({static_cast<TermId>(i % 250)});
  EXPECT_LE(broker.deadlineHeapSize(), 2048u);
  broker.shutdown();
}

TEST(BrokerSubmit, UnknownTenantThrowsWithoutInvokingCompletion) {
  const PartitionedIndex index = tinyIndex(2);
  const Instance instance = tinyInstance(2, 2);
  QueryBroker broker(instance, instance.initialAssignment(), index, ServeConfig{});
  CompletionLedger ledger(1);
  SubmitOptions options;
  options.tenant = 404;
  EXPECT_THROW(broker.submit({3}, options, ledger.callback(0)),
               std::out_of_range);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ledger.waitForAll(std::chrono::milliseconds(1)));
  broker.shutdown();
}

}  // namespace
}  // namespace resex::serve
