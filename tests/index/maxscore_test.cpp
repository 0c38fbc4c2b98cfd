#include "index/maxscore.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "index/partition.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;

  explicit Fixture(std::uint64_t seed = 29)
      : config{.seed = seed, .docCount = 3000, .termCount = 600, .termExponent = 1.0},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {}
};

void expectSameTopK(const std::vector<ScoredDoc>& pruned,
                    const std::vector<ScoredDoc>& exhaustive) {
  // Exactness criterion: the score at every rank must agree. Doc ids must
  // agree too except where scores tie to within float summation noise —
  // the engines sum per-term contributions in different orders, so
  // equal-scored boundary docs may swap or substitute.
  ASSERT_EQ(pruned.size(), exhaustive.size());
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_NEAR(pruned[i].score, exhaustive[i].score, 1e-9) << "rank " << i;
    if (pruned[i].doc != exhaustive[i].doc) {
      EXPECT_LT(std::abs(pruned[i].score - exhaustive[i].score), 1e-9)
          << "rank " << i << ": different doc without a score tie";
    }
  }
}

TEST(MaxScore, ExactlyMatchesExhaustiveTopK) {
  Fixture f;
  Rng rng(1);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q) {
    std::vector<TermId> query;
    const std::size_t len = 1 + rng.below(4);
    for (std::size_t i = 0; i < len; ++i)
      query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
    const auto pruned = topKMaxScore(f.index, query, 10, Bm25Params{});
    const auto exhaustive = topKDisjunctive(f.index, query, 10, Bm25Params{});
    expectSameTopK(pruned, exhaustive);
  }
}

TEST(MaxScore, MatchesAcrossKValues) {
  Fixture f;
  const std::vector<TermId> query{0, 3, 77};
  for (const std::size_t k : {1u, 5u, 50u, 100000u}) {
    const auto pruned = topKMaxScore(f.index, query, k, Bm25Params{});
    const auto exhaustive = topKDisjunctive(f.index, query, k, Bm25Params{});
    expectSameTopK(pruned, exhaustive);
  }
}

TEST(MaxScore, PrunesWorkOnSelectiveQueries) {
  Fixture f;
  // Head terms (huge lists) + small k: most candidates are skippable.
  const std::vector<TermId> query{0, 1, 2};
  ExecStats exhaustive;
  topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}, &exhaustive);
  MaxScoreStats pruned;
  topKMaxScore(f.index, query, 10, Bm25Params{}, &pruned);
  EXPECT_LT(pruned.postingsEvaluated, exhaustive.postingsScanned);
  EXPECT_GT(pruned.candidatesPruned, 0u);
}

TEST(MaxScore, HandlesDegenerateInputs) {
  Fixture f;
  EXPECT_TRUE(topKMaxScore(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKMaxScore(f.index, {0}, 0, Bm25Params{}).empty());
  // A term with an empty posting list (if one exists) contributes nothing.
  for (TermId t = f.config.termCount; t-- > 0;) {
    if (f.index.documentFrequency(t) == 0) {
      const auto withEmpty = topKMaxScore(f.index, {0, t}, 5, Bm25Params{});
      const auto without = topKMaxScore(f.index, {0}, 5, Bm25Params{});
      expectSameTopK(withEmpty, without);
      break;
    }
  }
}

TEST(MaxScore, DuplicateTermsDoNotDoubleCount) {
  Fixture f;
  const auto once = topKMaxScore(f.index, {4}, 5, Bm25Params{});
  const auto twice = topKMaxScore(f.index, {4, 4}, 5, Bm25Params{});
  expectSameTopK(twice, once);
}

TEST(MaxScore, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 4);
  const std::vector<TermId> query{1, 9, 40};
  // Per-shard MaxScore with global stats, merged, vs whole-index result.
  std::vector<std::vector<ScoredDoc>> perShard;
  for (std::size_t i = 0; i < part.shardCount(); ++i)
    perShard.push_back(topKMaxScore(part.shard(i), query, 10, Bm25Params{},
                                    nullptr, &part.globalStats()));
  const auto merged = mergeTopK(perShard, 10);
  const auto reference = topKDisjunctive(f.index, query, 10, Bm25Params{});
  expectSameTopK(merged, reference);
}

TEST(MaxScore, ManySeedsAgreeWithExhaustive) {
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    Fixture f(seed);
    Rng rng(seed);
    const ZipfSampler termPick(f.config.termCount, 1.1);
    for (int q = 0; q < 40; ++q) {
      std::vector<TermId> query;
      for (std::size_t i = 0; i < 2; ++i)
        query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
      expectSameTopK(topKMaxScore(f.index, query, 7, Bm25Params{}),
                     topKDisjunctive(f.index, query, 7, Bm25Params{}));
    }
  }
}

}  // namespace
}  // namespace resex
