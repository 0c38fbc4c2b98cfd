#include "serve/lru_cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace resex::serve {
namespace {

constexpr std::size_t kSketchRows = 4;
/// Sketch row width and aging period, per entry of shard capacity.
constexpr std::size_t kSketchWidthPerEntry = 16;
constexpr std::size_t kAgingPeriodPerEntry = 32;

/// The serve.cache_* instruments on /metrics, summed over every live cache
/// in the process.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& rejections;
  obs::Counter& evictions;
  obs::Counter& entriesInvalidated;
  obs::Gauge& capacity;
  obs::Gauge& entries;
};

CacheMetrics& metrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static CacheMetrics m{registry.counter("serve.cache_hits"),
                        registry.counter("serve.cache_misses"),
                        registry.counter("serve.cache_rejections"),
                        registry.counter("serve.cache_evictions"),
                        registry.counter("serve.cache_entries_invalidated"),
                        registry.gauge("serve.cache_capacity"),
                        registry.gauge("serve.cache_entries")};
  return m;
}

}  // namespace

ResultKey::ResultKey(std::vector<TermId> terms, std::uint32_t k)
    : terms_(std::move(terms)), k_(k) {
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
}

std::size_t ResultKeyHash::operator()(const ResultKey& key) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(key.k());
  for (const TermId t : key.terms()) mix(t);
  return static_cast<std::size_t>(h);
}

ShardedLruCache::FrequencySketch::FrequencySketch(std::size_t capacity)
    : counters(kSketchRows * std::bit_ceil(kSketchWidthPerEntry * capacity)),
      mask(counters.size() / kSketchRows - 1),
      agingPeriod(kAgingPeriodPerEntry * capacity) {}

void ShardedLruCache::FrequencySketch::increment(std::uint64_t hash) {
  // The row indices come from a splitmix64 chain over the key hash: the
  // hash's low bits also pick the cache shard, so they are not used raw.
  std::uint64_t state = hash;
  for (std::size_t row = 0; row < kSketchRows; ++row) {
    std::uint8_t& counter = counters[row * (mask + 1) + (splitmix64(state) & mask)];
    if (counter < 0xff) ++counter;
  }
  if (++additions >= agingPeriod) {
    for (std::uint8_t& counter : counters) counter >>= 1;
    additions = 0;
  }
}

std::uint32_t ShardedLruCache::FrequencySketch::estimate(std::uint64_t hash) const {
  std::uint64_t state = hash;
  std::uint32_t least = 0xff;
  for (std::size_t row = 0; row < kSketchRows; ++row)
    least = std::min<std::uint32_t>(
        least, counters[row * (mask + 1) + (splitmix64(state) & mask)]);
  return least;
}

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  if (capacity == 0) return;
  const std::size_t shardCount = std::clamp<std::size_t>(shards, 1, capacity);
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i)
    shards_.push_back(std::make_unique<Shard>(capacity / shardCount +
                                              (i < capacity % shardCount ? 1 : 0)));
  metrics().capacity.add(static_cast<double>(capacity));
}

ShardedLruCache::~ShardedLruCache() {
  if (!enabled()) return;
  metrics().capacity.add(-static_cast<double>(capacity_));
  metrics().entries.add(-static_cast<double>(entryCount()));
}

ShardedLruCache::Shard& ShardedLruCache::shardFor(std::size_t hash) {
  return *shards_[hash % shards_.size()];
}

bool ShardedLruCache::get(const ResultKey& key, std::vector<ScoredDoc>& out) {
  if (!enabled()) return false;
  const std::size_t hash = ResultKeyHash{}(key);
  Shard& shard = shardFor(hash);
  std::lock_guard lock(shard.mutex);
  shard.sketch.increment(hash);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics().misses.add();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  out = it->second->docs;
  hits_.fetch_add(1, std::memory_order_relaxed);
  metrics().hits.add();
  return true;
}

void ShardedLruCache::put(const ResultKey& key, std::vector<ScoredDoc> docs) {
  if (!enabled()) return;
  const std::size_t hash = ResultKeyHash{}(key);
  Shard& shard = shardFor(hash);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->docs = std::move(docs);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    if (shard.sketch.estimate(hash) <=
        shard.sketch.estimate(ResultKeyHash{}(shard.lru.back().key))) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      metrics().rejections.add();
      return;
    }
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    metrics().evictions.add();
    dropEntries(1);
  }
  shard.lru.push_front(Entry{key, std::move(docs)});
  shard.map.emplace(shard.lru.front().key, shard.lru.begin());
  admitted_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  metrics().entries.add(1.0);
}

void ShardedLruCache::dropEntries(std::size_t count) {
  entries_.fetch_sub(count, std::memory_order_relaxed);
  metrics().entries.add(-static_cast<double>(count));
}

void ShardedLruCache::clear() {
  if (!enabled()) return;
  std::size_t dropped = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    dropped += shard->lru.size();
    shard->lru.clear();
    shard->map.clear();
  }
  dropEntries(dropped);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  entriesInvalidated_.fetch_add(dropped, std::memory_order_relaxed);
  metrics().entriesInvalidated.add(dropped);
}

CacheStats ShardedLruCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.entriesInvalidated = entriesInvalidated_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace resex::serve
