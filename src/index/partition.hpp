// Document-partitioned index: the materialized model of a search shard.
//
// Documents are generated from Zipf term statistics, partitioned into
// shards, indexed independently, and queried scatter-gather with global
// scoring statistics. Per-shard execution cost is *measured* (postings
// scanned), which grounds the analytic cost model of src/search.
#pragma once

#include <memory>
#include <string>

#include "index/query_exec.hpp"
#include "util/rng.hpp"

namespace resex {

struct SyntheticDocConfig {
  std::uint64_t seed = 1;
  std::uint32_t docCount = 2000;
  std::uint32_t termCount = 1000;
  /// Zipf exponent of term occurrence.
  double termExponent = 1.0;
  /// Document lengths are lognormal around this mean token count.
  double meanDocLength = 60.0;
  double docLengthSigma = 0.4;
};

/// Generates a corpus of synthetic documents (Zipf term draws).
std::vector<Document> generateDocuments(const SyntheticDocConfig& config);

class PartitionedIndex {
 public:
  /// Partitions `documents` into `shardCount` shards. `weights` biases how
  /// many documents each shard receives (empty = equal); assignment is
  /// round-robin over a weighted schedule, deterministic. The corpus is
  /// taken by value: pass an rvalue and each document moves into its
  /// shard and is freed once that shard is built.
  PartitionedIndex(std::uint32_t termCount, std::vector<Document> documents,
                   std::size_t shardCount, const std::vector<double>& weights = {});

  /// Persists every shard as a segment file under `dir` (created if
  /// missing), named shard-NNNN.seg. Returns the paths in shard order.
  std::vector<std::string> writeSegmentDir(const std::string& dir) const;

  /// Rebuilds a partitioned index by mmap'ing one segment file per shard
  /// (paths in shard order). Every file is fully validated at load; global
  /// statistics are recomputed from the shards. All shards must agree on
  /// the term count.
  static PartitionedIndex fromSegmentFiles(const std::vector<std::string>& paths);

  /// fromSegmentFiles over every shard-*.seg in `dir`, in name order.
  static PartitionedIndex fromSegmentDir(const std::string& dir);

  std::size_t shardCount() const noexcept { return shards_.size(); }
  const InvertedIndex& shard(std::size_t i) const { return *shards_.at(i); }
  const GlobalStats& globalStats() const noexcept { return global_; }
  /// Fraction of all documents hosted by shard i.
  double docFraction(std::size_t i) const;

  /// Scatter-gather top-k across every shard (disjunctive BM25), scored
  /// with global statistics so the merge is exact. Each shard's full
  /// ExecStats is accumulated into `perShardStats` when provided (size
  /// shardCount).
  std::vector<ScoredDoc> searchTopK(const std::vector<TermId>& terms, std::size_t k,
                                    const Bm25Params& params = {},
                                    std::vector<ExecStats>* perShardStats = nullptr) const;

 private:
  PartitionedIndex() = default;  // for the segment-loading factories
  void computeGlobalStats(std::uint32_t termCount);

  std::vector<std::unique_ptr<InvertedIndex>> shards_;
  GlobalStats global_;
  std::size_t totalDocs_ = 0;
};

}  // namespace resex
