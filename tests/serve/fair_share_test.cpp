#include "serve/fair_share.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace resex::serve {
namespace {

/// Drains `count` dispatches and returns how many each tenant received.
std::vector<std::size_t> dispatchCounts(FairShareScheduler& scheduler,
                                        std::size_t tenants, std::size_t count) {
  std::vector<std::size_t> got(tenants, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<TenantId> next = scheduler.takeNext();
    if (!next) break;
    ++got[*next];
  }
  return got;
}

TEST(FairShareScheduler, DispatchesProportionallyToWeight) {
  FairShareScheduler scheduler({3.0, 1.0});
  for (int i = 0; i < 20; ++i) {
    scheduler.onEnqueue(0);
    scheduler.onEnqueue(1);
  }
  // Both tenants backlogged: over 8 dispatches the 3:1 weights must yield
  // exactly 6:2 (SFQ is deterministic, not merely proportional in the
  // limit).
  const auto got = dispatchCounts(scheduler, 2, 8);
  EXPECT_EQ(got[0], 6u);
  EXPECT_EQ(got[1], 2u);
}

TEST(FairShareScheduler, IdleTenantBanksNoCredit) {
  FairShareScheduler scheduler({1.0, 1.0});
  for (int i = 0; i < 10; ++i) scheduler.onEnqueue(0);
  // Tenant 0 drains alone for a while...
  auto got = dispatchCounts(scheduler, 2, 6);
  EXPECT_EQ(got[0], 6u);
  // ...then tenant 1 wakes with a backlog. Activation catch-up means it
  // rejoins at the current virtual clock instead of its stale zero: equal
  // weights now split dispatches 3:3, not 6:0 to the newcomer.
  for (int i = 0; i < 10; ++i) scheduler.onEnqueue(1);
  got = dispatchCounts(scheduler, 2, 6);
  EXPECT_EQ(got[0], 3u);
  EXPECT_EQ(got[1], 3u);
}

/// Runs `script` against a scheduler built from `weights` the way the
/// broker builds one (through TenantRegistry). An op with count > 0
/// enqueues that many tasks for its tenant; an op with count < 0 dispatches
/// -count tasks (its tenant is ignored). Returns the dispatched tenant ids, one digit each, with a
/// '|' closing every dispatch op.
std::string dispatchSequence(const std::vector<double>& weights,
                             const std::vector<std::pair<TenantId, int>>& script) {
  std::vector<TenantSpec> specs(weights.size());
  for (std::size_t t = 0; t < weights.size(); ++t) {
    specs[t].name = std::to_string(t);
    specs[t].weight = weights[t];
  }
  const TenantRegistry registry(specs);
  FairShareScheduler scheduler(registry.weights());
  std::string sequence;
  for (const auto& [tenant, count] : script) {
    for (int i = 0; i < count; ++i) scheduler.onEnqueue(tenant);
    if (count > 0) continue;
    for (int i = 0; i < -count; ++i) {
      const std::optional<TenantId> next = scheduler.takeNext();
      sequence += next ? static_cast<char>('0' + *next) : '.';
    }
    sequence += '|';
  }
  return sequence;
}

TEST(FairShareScheduler, PinnedDispatchSequences) {
  // The expected sequences are what the former root -> pools -> tenants
  // tree dispatched with every tenant alone in its pool, as every caller
  // configured it; the flat SFQ must dispatch identically.
  // tenant_bench's 16:1 interactive/batch weights, with batch refilled
  // mid-run:
  EXPECT_EQ(dispatchSequence({16.0, 1.0}, {{0, 40}, {1, 5}, {0, -34}, {1, 3}, {0, -14}}),
            "0100000000000000001000000000000000|01000000011111|");
  // 3:2:1, where tenant 2 drains, idles through six dispatches, and
  // returns with a backlog at the current clock instead of banked credit:
  EXPECT_EQ(dispatchSequence({3.0, 2.0, 1.0},
                             {{0, 20}, {1, 20}, {2, 2}, {0, -12}, {0, -6}, {2, 6},
                              {0, -30}}),
            "012010012010|010100|120100120100120100120112112111|");
}

TEST(FairShareScheduler, ValidatesTreeAndTransitions) {
  EXPECT_THROW(FairShareScheduler{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW(FairShareScheduler{std::vector<double>({1.0, 0.0})},
               std::invalid_argument);

  FairShareScheduler scheduler({1.0});
  EXPECT_EQ(scheduler.pickNext(), std::nullopt);
  EXPECT_THROW(scheduler.onDequeue(0), std::logic_error);  // dequeue while idle
}

TEST(FairShareQueue, FairAcrossTenantsFifoWithin) {
  FairShareQueue<int> queue({2.0, 1.0});
  for (const int v : {10, 11, 12, 13}) ASSERT_TRUE(queue.push(v, 0));
  for (const int v : {20, 21}) ASSERT_TRUE(queue.push(v, 1));
  EXPECT_EQ(queue.size(), 6u);
  EXPECT_EQ(queue.sizeOf(0), 4u);
  // SFQ with weights 2:1 and ties to the lower index interleaves exactly
  // like this; each tenant's own items stay in arrival order.
  const std::vector<int> expected = {10, 20, 11, 12, 21, 13};
  for (const int want : expected) {
    const std::optional<int> got = queue.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
}

TEST(FairShareQueue, CloseDrainsRemainingItemsThenReturnsNull) {
  FairShareQueue<int> queue({1.0, 1.0});
  ASSERT_TRUE(queue.push(1, 0));
  ASSERT_TRUE(queue.push(2, 1));
  queue.close();
  EXPECT_FALSE(queue.push(3, 0));  // closed: new work refused
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());  // drain-on-close
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, BlockedPopWakesOnPush) {
  FairShareQueue<int> queue({1.0});
  std::optional<int> got;
  std::thread consumer([&] { got = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(queue.push(42, 0));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(FairShareQueue, CloseWakesBlockedConsumer) {
  FairShareQueue<int> queue({1.0});
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
}

TEST(FairShareQueue, ConcurrentProducersConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  FairShareQueue<int> queue({1.0, 2.0});
  std::atomic<long> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item, std::memory_order_relaxed);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(queue.push(p * kPerProducer + i, static_cast<TenantId>(p % 2)));
    });
  for (std::size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  queue.close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

}  // namespace
}  // namespace resex::serve
