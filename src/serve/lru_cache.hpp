// Sharded result cache for merged query results: TinyLFU admission in
// front of LRU eviction.
//
// Keyed by the canonical query (sorted, de-duplicated terms plus k), so
// [b,a] and [a,a,b] share the [a,b] entry; the query kernel canonicalises
// its terms the same way, so all three get byte-identical answers.
// Sharding by key hash keeps lock hold times short under concurrent
// clients; each shard is an intrusive LRU (doubly linked list + hash map)
// plus a count-min frequency sketch under the same mutex. Every get(), hit
// or miss, counts the key in the sketch. put() of a new key into a full
// shard admits it only when the key's estimated frequency is above that of
// the shard's LRU victim (Einziger, Friedman & Manes, "TinyLFU", ACM TOS
// 2017), so one-off queries cannot push out popular ones; admitted entries
// still evict in LRU order. The sketch halves every counter after 32
// increments per entry of shard capacity, so yesterday's hot keys fade.
// Only *complete* results are cached — a partial, deadline-degraded answer
// must not be replayed to later clients.
//
// Entries do not depend on placement. A result is a function of the query
// and of shard content, and a remap or a live shard move changes only
// where a shard is served, never what it holds: the broker refuses a
// replacement index whose content differs, and a live copy is checked
// against its source before it may serve. So moves keep every entry.
// clear() is the one invalidation (full teardown); it never touches the
// sketch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "index/query_exec.hpp"

namespace resex::serve {

/// Identity of a cacheable query: its terms sorted and de-duplicated, plus
/// the result size. The constructor is the one place the canonical form is
/// built, so every lookup and insert agrees on it.
class ResultKey {
 public:
  ResultKey(std::vector<TermId> terms, std::uint32_t k);

  const std::vector<TermId>& terms() const noexcept { return terms_; }
  std::uint32_t k() const noexcept { return k_; }

  bool operator==(const ResultKey& other) const noexcept {
    return k_ == other.k_ && terms_ == other.terms_;
  }

 private:
  std::vector<TermId> terms_;
  std::uint32_t k_ = 0;
};

/// FNV-1a over the canonical terms and k.
struct ResultKeyHash {
  std::size_t operator()(const ResultKey& key) const noexcept;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t admitted = 0;            // new keys inserted
  std::uint64_t rejected = 0;            // new keys the admission test dropped
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;       // clear() calls
  std::uint64_t entriesInvalidated = 0;  // entries those calls dropped
};

class ShardedLruCache {
 public:
  /// `capacity` entries total, spread as evenly as possible over
  /// min(shards, capacity) independent shards. capacity == 0 disables the
  /// cache (get always misses, put drops).
  ShardedLruCache(std::size_t capacity, std::size_t shards = 8);
  ~ShardedLruCache();

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Counts the key in its shard's frequency sketch; on hit copies the
  /// cached result into `out` and refreshes recency.
  bool get(const ResultKey& key, std::vector<ScoredDoc>& out);

  /// Refreshes an existing entry, or offers a new one: it is admitted when
  /// its shard has room or when the key is estimated more frequent than the
  /// shard's LRU victim (which it then evicts), and rejected otherwise.
  void put(const ResultKey& key, std::vector<ScoredDoc> docs);

  /// Drops every entry (full invalidation).
  void clear();

  std::size_t entryCount() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }
  CacheStats stats() const;

 private:
  struct Entry {
    ResultKey key;
    std::vector<ScoredDoc> docs;
  };
  /// Count-min sketch: four rows of 8-bit saturating counters, each row
  /// the next power of two >= 16 x the shard's capacity wide.
  struct FrequencySketch {
    explicit FrequencySketch(std::size_t capacity);
    void increment(std::uint64_t hash);
    std::uint32_t estimate(std::uint64_t hash) const;

    std::vector<std::uint8_t> counters;
    std::uint64_t mask = 0;
    std::size_t additions = 0;
    std::size_t agingPeriod = 0;
  };
  struct Shard {
    explicit Shard(std::size_t cap) : capacity(cap), sketch(cap) {}
    mutable std::mutex mutex;
    const std::size_t capacity;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<ResultKey, std::list<Entry>::iterator, ResultKeyHash> map;
    FrequencySketch sketch;
  };

  Shard& shardFor(std::size_t hash);
  void dropEntries(std::size_t count);

  std::size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> entries_{0};

  // Stats are whole-cache, relaxed-atomic (exact once writers quiesce).
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> entriesInvalidated_{0};
};

}  // namespace resex::serve
