#include "serve/lru_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex::serve {
namespace {

ResultKey key(std::vector<TermId> terms, std::uint32_t k = 10) {
  return ResultKey{std::move(terms), k};
}

std::vector<ScoredDoc> docs(DocId id) { return {{id, 1.0}}; }

TEST(ShardedLruCache, MissThenHitRoundTrip) {
  ShardedLruCache cache(16, 2);
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.get(key({1, 2}), out));
  cache.put(key({1, 2}), docs(7));
  ASSERT_TRUE(cache.get(key({1, 2}), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 7u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(ShardedLruCache, KeyIncludesKNotJustTerms) {
  ShardedLruCache cache(16, 2);
  cache.put(key({1, 2}, 10), docs(1));
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.get(key({1, 2}, 5), out));
  EXPECT_TRUE(cache.get(key({1, 2}, 10), out));
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  ShardedLruCache cache(2, 1);
  cache.put(key({1}), docs(1));
  cache.put(key({2}), docs(2));
  std::vector<ScoredDoc> out;
  EXPECT_TRUE(cache.get(key({2}), out));
  EXPECT_TRUE(cache.get(key({2}), out));
  EXPECT_TRUE(cache.get(key({1}), out));  // refresh {1}; {2} is now LRU
  // {3} is read more often than the victim, so it is admitted; the victim
  // is the least recently used entry even though it is the more frequent.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(cache.get(key({3}), out));
  cache.put(key({3}), docs(3));  // evicts {2}
  EXPECT_TRUE(cache.get(key({1}), out));
  EXPECT_FALSE(cache.get(key({2}), out));
  EXPECT_TRUE(cache.get(key({3}), out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().rejected, 0u);
}

TEST(ShardedLruCache, OneHitKeyCannotDisplaceFrequentEntry) {
  ShardedLruCache cache(2, 1);
  cache.put(key({1}), docs(1));
  cache.put(key({2}), docs(2));
  std::vector<ScoredDoc> out;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.get(key({1}), out));
    EXPECT_TRUE(cache.get(key({2}), out));
  }
  EXPECT_FALSE(cache.get(key({3}), out));  // a one-off query
  cache.put(key({3}), docs(3));
  EXPECT_TRUE(cache.get(key({1}), out));
  EXPECT_TRUE(cache.get(key({2}), out));
  EXPECT_FALSE(cache.get(key({3}), out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(ShardedLruCache, KeyReadMoreOftenThanVictimReplacesIt) {
  ShardedLruCache cache(1, 1);
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.get(key({1}), out));
  cache.put(key({1}), docs(1));
  EXPECT_TRUE(cache.get(key({1}), out));  // {1} read twice
  EXPECT_FALSE(cache.get(key({2}), out));
  EXPECT_FALSE(cache.get(key({2}), out));
  cache.put(key({2}), docs(2));  // 2 reads: a tie, rejected
  EXPECT_FALSE(cache.get(key({2}), out));
  cache.put(key({2}), docs(2));  // 3 reads beat 2
  EXPECT_TRUE(cache.get(key({2}), out));
  EXPECT_FALSE(cache.get(key({1}), out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ShardedLruCache, AgingLetsAFormerlyHotKeyBeDisplaced) {
  // One shard of 8: sketch rows 128 wide, every counter halved after 256
  // reads. {1} is read 64 times, then sits at the LRU end behind 7 entries
  // that are never read.
  ShardedLruCache cache(8, 1);
  std::vector<ScoredDoc> out;
  cache.put(key({1}), docs(1));
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(cache.get(key({1}), out));
  for (TermId t = 2; t <= 8; ++t) cache.put(key({t}), docs(t));
  const auto readTimes = [&](TermId t, int times) {
    for (int i = 0; i < times; ++i) cache.get(key({t}), out);
  };
  readTimes(100, 32);
  cache.put(key({100}), docs(100));  // 32 reads lose to 64
  EXPECT_EQ(cache.stats().rejected, 1u);
  // Two aging periods of one-off reads quarter {1}'s count to about 16.
  for (TermId t = 1000; t < 1000 + 160 + 256; ++t) readTimes(t, 1);
  readTimes(200, 24);
  cache.put(key({200}), docs(200));  // 24 reads now beat the aged {1}
  EXPECT_TRUE(cache.get(key({200}), out));
  EXPECT_FALSE(cache.get(key({1}), out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, InvalidationKeepsFrequencyCounts) {
  ShardedLruCache cache(1, 1);
  std::vector<ScoredDoc> out;
  cache.put(key({1}), docs(1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(cache.get(key({1}), out));
  cache.clear();
  EXPECT_EQ(cache.stats().entriesInvalidated, 1u);
  cache.put(key({2}), docs(2));  // never read, into the emptied shard
  // {1}'s five reads survived the clear, so it displaces {2}.
  cache.put(key({1}), docs(1));
  EXPECT_TRUE(cache.get(key({1}), out));
  EXPECT_FALSE(cache.get(key({2}), out));
  EXPECT_EQ(cache.stats().rejected, 0u);
}

TEST(ShardedLruCache, CanonicalKeySharesOneEntry) {
  ShardedLruCache cache(16, 4);
  cache.put(key({1, 2}), docs(7));
  std::vector<ScoredDoc> out;
  ASSERT_TRUE(cache.get(key({2, 1}), out));
  EXPECT_EQ(out[0].doc, 7u);
  ASSERT_TRUE(cache.get(key({1, 1, 2}), out));
  EXPECT_EQ(out[0].doc, 7u);
  EXPECT_EQ(key({2, 2, 1}).terms(), (std::vector<TermId>{1, 2}));
  EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ShardedLruCache, CapacityIsSpreadOverShardsExactly) {
  for (const auto& [capacity, shards] :
       {std::pair<std::size_t, std::size_t>{100, 8}, {4, 8}, {3, 1}, {13, 5}}) {
    ShardedLruCache cache(capacity, shards);
    EXPECT_EQ(cache.capacity(), capacity);
    for (TermId t = 0; t < 40 * capacity; ++t) {
      cache.put(key({t}), docs(t));
      ASSERT_LE(cache.entryCount(), capacity);
    }
    EXPECT_EQ(cache.entryCount(), capacity) << capacity << " over " << shards;
  }
}

TEST(ShardedLruCache, ZipfReplayKeepsThePopularQueries) {
  // live_migration's shape: 128 entries over the default 8 shards, a pool
  // of 4000 queries drawn Zipf(0.9). The 128 most popular queries would
  // answer about half the requests; admit-everything LRU answers about
  // 0.36.
  ShardedLruCache cache(128);
  const ZipfSampler sampler(4000, 0.9);
  Rng rng(42);
  std::vector<ScoredDoc> out;
  constexpr int kRequests = 100000;
  for (int i = 0; i < kRequests; ++i) {
    const auto rank = static_cast<TermId>(sampler.sample(rng));
    if (!cache.get(key({rank}), out)) cache.put(key({rank}), docs(rank));
  }
  const double hitRatio =
      static_cast<double>(cache.stats().hits) / static_cast<double>(kRequests);
  EXPECT_GE(hitRatio, 0.43);
}

TEST(ShardedLruCache, ClearDropsEverythingAndCountsInvalidation) {
  ShardedLruCache cache(16, 4);
  cache.put(key({1}), docs(1));
  cache.put(key({2}), docs(2));
  EXPECT_EQ(cache.entryCount(), 2u);
  cache.clear();
  EXPECT_EQ(cache.entryCount(), 0u);
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.get(key({1}), out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ShardedLruCache, ZeroCapacityDisablesCaching) {
  ShardedLruCache cache(0, 4);
  EXPECT_FALSE(cache.enabled());
  cache.put(key({1}), docs(1));
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.get(key({1}), out));
  EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ShardedLruCache, PutRefreshesExistingEntry) {
  ShardedLruCache cache(4, 1);
  cache.put(key({1}), docs(1));
  cache.put(key({1}), docs(9));
  std::vector<ScoredDoc> out;
  ASSERT_TRUE(cache.get(key({1}), out));
  EXPECT_EQ(out[0].doc, 9u);
  EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ShardedLruCache, ConcurrentMixedTrafficStaysConsistent) {
  ShardedLruCache cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      std::vector<ScoredDoc> out;
      for (int i = 0; i < 2000; ++i) {
        const auto k = key({static_cast<TermId>(i % 100), static_cast<TermId>(t)});
        if (!cache.get(k, out)) cache.put(k, docs(static_cast<DocId>(i % 100)));
        if (i % 500 == 0) cache.clear();
      }
    });
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 2000u);
  EXPECT_LE(cache.entryCount(), 64u);
}

}  // namespace
}  // namespace resex::serve
