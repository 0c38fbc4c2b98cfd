#include "serve/fair_share.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace resex::serve {
namespace {

FairShareTreeSpec onePool(std::vector<double> weights) {
  FairShareTreeSpec spec;
  double total = 0.0;
  for (const double w : weights) total += w;
  spec.pools.push_back({"pool", total});
  for (const double w : weights) spec.tenants.push_back({w, 0});
  return spec;
}

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
  FairShareScheduler scheduler(onePool({3.0, 1.0}));
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
  FairShareScheduler scheduler(onePool({1.0, 1.0}));
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

TEST(FairShareScheduler, PoolsShareByMemberSummedWeight) {
  // Pool 0 shelters two weight-1 tenants (pool weight 2); pool 1 one
  // weight-1 tenant. Pool 0 earns 2/3 of dispatches, split evenly inside.
  FairShareTreeSpec spec;
  spec.pools.push_back({"a", 2.0});
  spec.pools.push_back({"b", 1.0});
  spec.tenants.push_back({1.0, 0});
  spec.tenants.push_back({1.0, 0});
  spec.tenants.push_back({1.0, 1});
  FairShareScheduler scheduler(spec);
  for (TenantId t = 0; t < 3; ++t)
    for (int i = 0; i < 10; ++i) scheduler.onEnqueue(t);
  const auto got = dispatchCounts(scheduler, 3, 9);
  EXPECT_EQ(got[0], 3u);
  EXPECT_EQ(got[1], 3u);
  EXPECT_EQ(got[2], 3u);
  EXPECT_EQ(scheduler.pending(0), 7u);
  EXPECT_EQ(scheduler.totalPending(), 21u);
}

TEST(FairShareScheduler, ValidatesTreeAndTransitions) {
  EXPECT_THROW(FairShareScheduler{FairShareTreeSpec{}}, std::invalid_argument);
  EXPECT_THROW(FairShareScheduler{onePool({0.0})}, std::invalid_argument);
  FairShareTreeSpec badPool;
  badPool.pools.push_back({"p", 1.0});
  badPool.tenants.push_back({1.0, 7});  // pool index out of range
  EXPECT_THROW(FairShareScheduler{badPool}, std::invalid_argument);

  FairShareScheduler scheduler(onePool({1.0}));
  EXPECT_EQ(scheduler.pickNext(), std::nullopt);
  EXPECT_THROW(scheduler.onDequeue(0), std::logic_error);  // dequeue while idle
}

TEST(FairShareQueue, FairAcrossTenantsFifoWithin) {
  FairShareQueue<int> queue(onePool({2.0, 1.0}));
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
  FairShareQueue<int> queue(onePool({1.0, 1.0}));
  ASSERT_TRUE(queue.push(1, 0));
  ASSERT_TRUE(queue.push(2, 1));
  queue.close();
  EXPECT_FALSE(queue.push(3, 0));  // closed: new work refused
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());  // drain-on-close
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, BlockedPopWakesOnPush) {
  FairShareQueue<int> queue(onePool({1.0}));
  std::optional<int> got;
  std::thread consumer([&] { got = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(queue.push(42, 0));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(FairShareQueue, CloseWakesBlockedConsumer) {
  FairShareQueue<int> queue(onePool({1.0}));
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
}

TEST(FairShareQueue, ConcurrentProducersConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  FairShareQueue<int> queue(onePool({1.0, 2.0}));
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
