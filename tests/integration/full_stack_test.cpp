// The deepest integration path in the repository: real posting lists →
// measured per-shard query work → a RESEX instance whose CPU demands are
// those measurements → SRA → a verified migration schedule → measured
// work under the new placement.
//
// This closes the loop between the materialized index substrate
// (src/index), the cluster model (src/cluster), and the optimizer
// (src/core): the demands SRA balances are not modelled but *measured*.
#include <gtest/gtest.h>

#include "core/sra.hpp"
#include "index/partition.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

struct Stack {
  SyntheticDocConfig corpus;
  std::vector<Document> docs;
  PartitionedIndex part;
  static constexpr std::size_t kShards = 24;

  Stack()
      : corpus{.seed = 99, .docCount = 6000, .termCount = 1200, .termExponent = 1.0},
        docs(generateDocuments(corpus)),
        part(corpus.termCount, docs, kShards, skewedWeights()) {}

  /// Heavy-tailed shard sizes so the measured work is imbalanced.
  static std::vector<double> skewedWeights() {
    std::vector<double> weights(kShards);
    Rng rng(7);
    for (double& w : weights) w = rng.lognormal(0.0, 0.8);
    return weights;
  }

  /// Measures per-shard postings scanned over a query sample.
  std::vector<double> measureWork(int queries, std::uint64_t seed) const {
    std::vector<ExecStats> stats(part.shardCount());
    Rng rng(seed);
    const ZipfSampler termPick(corpus.termCount, 0.9);
    for (int q = 0; q < queries; ++q) {
      std::vector<TermId> query;
      const std::size_t len = 1 + rng.below(3);
      for (std::size_t i = 0; i < len; ++i)
        query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
      part.searchTopK(query, 10, Bm25Params{}, &stats);
    }
    std::vector<double> work(part.shardCount());
    for (std::size_t i = 0; i < part.shardCount(); ++i)
      work[i] = static_cast<double>(stats[i].postingsScanned);
    return work;
  }

  /// Builds a RESEX instance: dim 0 = measured query work, dim 1 = real
  /// compressed index bytes. Machines sized for a target load factor;
  /// shards packed round-robin as the skewed initial placement.
  Instance buildInstance(const std::vector<double>& work, std::size_t machines,
                         std::size_t exchange, double loadFactor) const {
    double totalWork = 0.0;
    double totalBytes = 0.0;
    std::vector<Shard> shards(part.shardCount());
    for (std::size_t s = 0; s < part.shardCount(); ++s) {
      shards[s].id = static_cast<ShardId>(s);
      shards[s].demand = ResourceVector{
          work[s], static_cast<double>(part.shard(s).indexBytes())};
      shards[s].moveBytes = static_cast<double>(part.shard(s).indexBytes());
      totalWork += work[s];
      totalBytes += static_cast<double>(part.shard(s).indexBytes());
    }
    const double cpuCap =
        totalWork / (loadFactor * static_cast<double>(machines));
    const double memCap =
        totalBytes / (0.6 * static_cast<double>(machines));
    std::vector<Machine> machineList(machines + exchange);
    for (std::size_t i = 0; i < machineList.size(); ++i) {
      machineList[i].id = static_cast<MachineId>(i);
      machineList[i].capacity = ResourceVector{cpuCap, memCap};
    }
    // Skewed start: first machines take several shards each.
    std::vector<MachineId> initial(part.shardCount());
    for (std::size_t s = 0; s < part.shardCount(); ++s)
      initial[s] = static_cast<MachineId>((s * s) % machines);
    return Instance(2, std::move(machineList), std::move(shards),
                    std::move(initial), exchange, ResourceVector{0.3, 1.0});
  }
};

TEST(FullStack, MeasuredWorkIsImbalancedAcrossShards) {
  Stack stack;
  const auto work = stack.measureWork(120, 3);
  double lo = work[0];
  double hi = work[0];
  for (const double w : work) {
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  EXPECT_GT(hi, 2.0 * lo);  // the skewed weights show up in measured work
}

TEST(FullStack, MeasuredWorkIsReproducible) {
  Stack stack;
  EXPECT_EQ(stack.measureWork(60, 5), stack.measureWork(60, 5));
}

TEST(FullStack, SraBalancesMeasuredWorkAndSchedules) {
  Stack stack;
  const auto work = stack.measureWork(120, 3);
  const Instance instance = stack.buildInstance(work, 6, 1, 0.7);

  Assignment before(instance);
  const double startBottleneck = before.bottleneckUtilization();

  SraConfig config;
  config.lns.seed = 11;
  config.lns.maxIterations = 3000;
  Sra sra(config);
  const RebalanceResult r = sra.rebalance(instance);

  EXPECT_LT(r.after.bottleneckUtil, startBottleneck);
  EXPECT_TRUE(r.scheduleComplete());
  EXPECT_TRUE(verifySchedule(instance, instance.initialAssignment(),
                             r.targetMapping, r.schedule)
                  .empty());
  Assignment after(instance, r.finalMapping);
  EXPECT_TRUE(after.validate(/*requireCapacity=*/true).empty());
  EXPECT_GE(after.vacantCount(), instance.exchangeCount());

  // The balanced placement really is better under the *measured* loads:
  // recompute per-machine work from the mapping.
  auto machineWork = [&](const std::vector<MachineId>& mapping) {
    std::vector<double> load(instance.machineCount(), 0.0);
    for (ShardId s = 0; s < instance.shardCount(); ++s) load[mapping[s]] += work[s];
    double worst = 0.0;
    for (const double l : load) worst = std::max(worst, l);
    return worst;
  };
  EXPECT_LT(machineWork(r.finalMapping),
            machineWork(instance.initialAssignment()));
}

TEST(FullStack, SearchResultsUnaffectedByPlacement) {
  // Moving shards between machines must never change search results:
  // placement is transparent to the scatter-gather layer.
  Stack stack;
  const std::vector<TermId> query{0, 17, 230};
  const auto beforeResults = stack.part.searchTopK(query, 10);
  // (Re)build the same partition and query again — placement of shards on
  // machines is not even an input to the search path.
  const PartitionedIndex again(stack.corpus.termCount, stack.docs, Stack::kShards,
                               Stack::skewedWeights());
  const auto afterResults = again.searchTopK(query, 10);
  ASSERT_EQ(beforeResults.size(), afterResults.size());
  for (std::size_t i = 0; i < beforeResults.size(); ++i)
    EXPECT_EQ(beforeResults[i].doc, afterResults[i].doc);
}

}  // namespace
}  // namespace resex
