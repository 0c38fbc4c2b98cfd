#include "index/partition.hpp"

#include <gtest/gtest.h>

#include "search/builder.hpp"

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;

  Fixture() : config{.seed = 23, .docCount = 1200, .termCount = 400} {
    docs = generateDocuments(config);
  }
};

TEST(Partition, DocumentsAreDistributed) {
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 6);
  std::size_t total = 0;
  for (std::size_t i = 0; i < part.shardCount(); ++i) {
    EXPECT_GT(part.shard(i).documentCount(), 0u);
    total += part.shard(i).documentCount();
    EXPECT_NEAR(part.docFraction(i), 1.0 / 6.0, 0.05);
  }
  EXPECT_EQ(total, f.docs.size());
}

TEST(Partition, WeightedSplitFollowsWeights) {
  Fixture f;
  const std::vector<double> weights{3.0, 1.0, 1.0, 1.0};
  const PartitionedIndex part(f.config.termCount, f.docs, 4, weights);
  EXPECT_NEAR(part.docFraction(0), 0.5, 0.05);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_NEAR(part.docFraction(i), 1.0 / 6.0, 0.05);
}

TEST(Partition, SearchTopKAccumulatesEveryExecStat) {
  // perShardStats must carry each shard's full ExecStats — block decodes,
  // skips and heap prunes included — summed over queries.
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 3);
  const std::vector<std::vector<TermId>> queries{{0, 1}, {2, 30, 95}, {0, 5, 11}};
  std::vector<ExecStats> perShard(part.shardCount());
  std::vector<ExecStats> expected(part.shardCount());
  for (const auto& query : queries) {
    part.searchTopK(query, 5, {}, &perShard);
    for (std::size_t s = 0; s < part.shardCount(); ++s)
      topKDisjunctive(part.shard(s), query, 5, {}, &expected[s], &part.globalStats());
  }
  std::size_t decoded = 0, skippedOrPruned = 0;
  for (std::size_t s = 0; s < part.shardCount(); ++s) {
    EXPECT_EQ(perShard[s].postingsScanned, expected[s].postingsScanned) << s;
    EXPECT_EQ(perShard[s].candidatesScored, expected[s].candidatesScored) << s;
    EXPECT_EQ(perShard[s].blocksDecoded, expected[s].blocksDecoded) << s;
    EXPECT_EQ(perShard[s].blocksSkipped, expected[s].blocksSkipped) << s;
    EXPECT_EQ(perShard[s].heapThresholdPrunes, expected[s].heapThresholdPrunes) << s;
    decoded += perShard[s].blocksDecoded;
    skippedOrPruned += perShard[s].blocksSkipped + perShard[s].heapThresholdPrunes;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(skippedOrPruned, 0u);  // the counters that used to be dropped
}

TEST(Partition, GlobalStatsMatchWholeIndex) {
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 5);
  const InvertedIndex whole(f.config.termCount, f.docs);
  EXPECT_EQ(part.globalStats().documentCount, whole.documentCount());
  EXPECT_NEAR(part.globalStats().avgDocLength, whole.averageDocLength(), 1e-9);
  for (TermId t = 0; t < f.config.termCount; ++t)
    EXPECT_EQ(part.globalStats().documentFrequency[t], whole.documentFrequency(t))
        << "term " << t;
}

TEST(Partition, ScatterGatherEqualsWholeIndexSearch) {
  // The core correctness claim of document partitioning with global
  // scoring statistics: the merged per-shard top-k equals the top-k of an
  // unpartitioned index, for any shard count.
  Fixture f;
  const InvertedIndex whole(f.config.termCount, f.docs);
  for (const std::size_t shards : {1u, 2u, 7u}) {
    const PartitionedIndex part(f.config.termCount, f.docs, shards);
    for (const std::vector<TermId> query :
         {std::vector<TermId>{0}, {1, 7}, {2, 30, 95}}) {
      const auto partitioned = part.searchTopK(query, 10);
      const auto reference = topKDisjunctive(whole, query, 10, Bm25Params{});
      ASSERT_EQ(partitioned.size(), reference.size())
          << shards << " shards, first term " << query[0];
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(partitioned[i].doc, reference[i].doc) << "rank " << i;
        EXPECT_NEAR(partitioned[i].score, reference[i].score, 1e-9);
      }
    }
  }
}

TEST(Partition, PerShardWorkScalesWithDocFraction) {
  // The empirical grounding of the analytic cost model in src/search:
  // postings scanned per shard for a query is proportional to the shard's
  // document fraction (in expectation). The model describes *exhaustive*
  // evaluation, so the measurement runs the TAAT reference per shard (the
  // DAAT path prunes a query-dependent fraction; the simulator folds that
  // in separately via SimulationConfig.pruningFactor).
  Fixture f;
  const std::vector<double> weights{4.0, 1.0};
  const PartitionedIndex part(f.config.termCount, f.docs, 2, weights);
  std::vector<ExecStats> stats(2);
  // A batch of head-term queries accumulates enough postings to average.
  for (TermId t = 0; t < 30; ++t) {
    const std::vector<TermId> query{t, static_cast<TermId>(t + 1)};
    for (std::size_t s = 0; s < 2; ++s)
      topKDisjunctiveTaat(part.shard(s), query, 10, Bm25Params{}, &stats[s],
                          &part.globalStats());
  }
  const double ratio = static_cast<double>(stats[0].postingsScanned) /
                       static_cast<double>(stats[1].postingsScanned);
  const double fractionRatio = part.docFraction(0) / part.docFraction(1);
  EXPECT_NEAR(ratio, fractionRatio, fractionRatio * 0.15);
}

TEST(Partition, MeasuredWorkTracksAnalyticCostModel) {
  // The analytic model says expected per-query work on a shard is
  // affine in the shard's corpus fraction with slope ~ E[df of a query
  // term] * terms-per-query. Check the *shape*: doubling the fraction
  // about doubles the measured postings scanned (exhaustive reference,
  // as above).
  Fixture f;
  const std::vector<double> weights{2.0, 1.0, 1.0};
  const PartitionedIndex part(f.config.termCount, f.docs, 3, weights);
  std::vector<ExecStats> stats(3);
  for (TermId t = 0; t < 40; ++t)
    for (std::size_t s = 0; s < 3; ++s)
      topKDisjunctiveTaat(part.shard(s), {t}, 10, Bm25Params{}, &stats[s],
                          &part.globalStats());
  EXPECT_NEAR(static_cast<double>(stats[0].postingsScanned),
              static_cast<double>(stats[1].postingsScanned + stats[2].postingsScanned),
              0.15 * static_cast<double>(stats[0].postingsScanned));
}

TEST(Partition, RejectsBadArguments) {
  Fixture f;
  EXPECT_THROW(PartitionedIndex(f.config.termCount, f.docs, 0), std::invalid_argument);
  EXPECT_THROW(PartitionedIndex(f.config.termCount, f.docs, 2, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(PartitionedIndex(f.config.termCount, f.docs, 2, {1.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace resex
