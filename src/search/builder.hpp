// SearchWorkload: the bridge between the search-engine substrate and the
// RESEX cluster model.
//
// Shards are document partitions with heavy-tailed corpus fractions; their
// CPU demand is derived from the query cost model at a given QPS and their
// memory demand from index size. Machine capacities are sized so the peak
// hour hits a configured load factor — the "stringent resource
// environment" of the paper.
#pragma once

#include "cluster/instance.hpp"
#include "search/engine.hpp"

namespace resex {

struct SearchWorkloadConfig {
  std::uint64_t seed = 1;
  CorpusConfig corpus;
  QueryModelConfig queryModel;
  /// Logical index partitions (each replicated replicationFactor times).
  std::size_t shardCount = 400;
  /// Replicas per partition; replicas split the query load (the router is
  /// power-of-two-choices) but each holds the full partition index.
  std::size_t replicationFactor = 1;
  /// Lognormal sigma of shard corpus fractions (0 = equal shards).
  double shardSizeSigma = 0.5;
  std::size_t machines = 24;
  std::size_t exchangeMachines = 2;
  /// Peak queries/second the cluster is sized for.
  double peakQps = 1000.0;
  /// CPU load factor at peak QPS (how stringent the environment is).
  double cpuLoadFactorAtPeak = 0.85;
  /// Memory (index bytes) load factor.
  double memLoadFactor = 0.6;
  double bytesPerPosting = 16.0;
  /// Initial-placement skew (see SyntheticConfig::placementSkew).
  double placementSkew = 0.7;
};

class SearchWorkload {
 public:
  explicit SearchWorkload(const SearchWorkloadConfig& config);

  const Corpus& corpus() const noexcept { return corpus_; }
  const QueryGenerator& queries() const noexcept { return queries_; }
  const SearchWorkloadConfig& config() const noexcept { return config_; }
  /// Corpus fraction per *physical* shard (replicas repeat their
  /// partition's fraction).
  const std::vector<double>& docFractions() const noexcept { return docFraction_; }
  double indexBytes(ShardId s) const { return indexBytes_.at(s); }
  /// Physical shards (= shardCount * replicationFactor).
  std::size_t physicalShardCount() const noexcept { return docFraction_.size(); }

  /// Physical-shard demand at `qps`: dim 0 = CPU work-units/s (the
  /// partition's query work split across its replicas), dim 1 = index
  /// bytes (each replica holds the full partition index).
  ResourceVector shardDemand(ShardId s, double qps) const;

  /// Builds a RESEX instance at `qps`. When `currentMapping` is null a
  /// skewed feasible initial placement is generated on the first
  /// config.machines machines (cluster bring-up; the exchangeMachines after
  /// them start vacant); otherwise the given mapping is carried over as the
  /// starting state with machine ids unchanged (epoch-to-epoch operation; it
  /// may be over capacity at the new QPS, and any machines may be vacant).
  Instance buildInstance(double qps,
                         const std::vector<MachineId>* currentMapping = nullptr) const;

  /// Simulates query serving at `qps` under a mapping of the instance
  /// returned by buildInstance (machine ids must match).
  SimulationResult simulate(const std::vector<MachineId>& mapping, double qps,
                            std::size_t queryCount, std::uint64_t seed) const;

 private:
  SearchWorkloadConfig config_;
  Corpus corpus_;
  QueryGenerator queries_;
  std::vector<double> docFraction_;
  std::vector<double> indexBytes_;
  double cpuCapacityPerMachine_ = 0.0;
  double memCapacityPerMachine_ = 0.0;
};

}  // namespace resex
