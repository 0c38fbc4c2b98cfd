#include "index/query_exec.hpp"

#include <gtest/gtest.h>

#include "index/brute_force.hpp"
#include "index/partition.hpp"

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;

  Fixture()
      : config{.seed = 17, .docCount = 800, .termCount = 300, .termExponent = 0.9},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {}
};

void expectSameResults(const std::vector<ScoredDoc>& actual,
                       const std::vector<ScoredDoc>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].doc, expected[i].doc) << "rank " << i;
    EXPECT_NEAR(actual[i].score, expected[i].score, 1e-9) << "rank " << i;
  }
}

TEST(QueryExec, DisjunctiveMatchesBruteForce) {
  Fixture f;
  for (const std::vector<TermId>& query :
       {std::vector<TermId>{0}, {5, 40}, {1, 2, 3}, {100, 200, 250}}) {
    const auto fast = topKDisjunctive(f.index, query, 10, Bm25Params{});
    const auto slow = bruteForce(f.docs, f.config.termCount, query, 10, {});
    expectSameResults(fast, slow);
  }
}

// The term-at-a-time scan through one reused scratch arena: each query must
// start from a clean accumulator, whatever the previous query left in it.
TEST(QueryExec, TaatMatchesBruteForce) {
  Fixture f;
  QueryScratch scratch;
  for (const std::vector<TermId>& query :
       {std::vector<TermId>{0, 1, 2, 3}, {5, 40}, {0}, {100, 200, 250}, {1, 2, 3}}) {
    const auto view = topKDisjunctiveInto(f.index, query, 10, Bm25Params{}, scratch);
    const std::vector<ScoredDoc> fast(view.begin(), view.end());
    const auto slow = bruteForce(f.docs, f.config.termCount, query, 10, {});
    expectSameResults(fast, slow);
  }
}

TEST(QueryExec, DuplicateQueryTermsDoNotDoubleCount) {
  Fixture f;
  const auto once = topKDisjunctive(f.index, {3}, 5, Bm25Params{});
  const auto twice = topKDisjunctive(f.index, {3, 3}, 5, Bm25Params{});
  expectSameResults(twice, once);
}

TEST(QueryExec, EmptyQueryAndEmptyTermBehave) {
  Fixture f;
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}).empty());
  // A term with no postings: find one, if any; vocabulary tail is sparse.
  TermId empty = 0;
  bool found = false;
  for (TermId t = f.config.termCount; t-- > 0;) {
    if (f.index.documentFrequency(t) == 0) {
      empty = t;
      found = true;
      break;
    }
  }
  if (found) {
    EXPECT_TRUE(topKDisjunctive(f.index, {empty}, 10, Bm25Params{}).empty());
  }
}

// Degenerate inputs to the disjunctive kernel return nothing rather than
// touching a posting list.
TEST(QueryExec, DegenerateInputs) {
  Fixture f;
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKDisjunctive(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(QueryExec, StatsCountScannedPostings) {
  Fixture f;
  ExecStats stats;
  topKDisjunctive(f.index, {0, 1}, 10, Bm25Params{}, &stats);
  // The exhaustive scan reads whole lists: every posting, every block.
  EXPECT_EQ(stats.postingsScanned,
            f.index.documentFrequency(0) + f.index.documentFrequency(1));
  EXPECT_EQ(stats.blocksDecoded, f.index.postings(0).blockCount() +
                                     f.index.postings(1).blockCount());
  EXPECT_GT(stats.candidatesScored, 0u);
}

TEST(QueryExec, KLimitsResultCount) {
  Fixture f;
  const auto results = topKDisjunctive(f.index, {0}, 3, Bm25Params{});
  EXPECT_LE(results.size(), 3u);
  const auto all = topKDisjunctive(f.index, {0}, 1 << 20, Bm25Params{});
  EXPECT_EQ(all.size(), f.index.documentFrequency(0));
}

TEST(QueryExec, ScoresAreDescending) {
  Fixture f;
  const auto results = topKDisjunctive(f.index, {0, 1, 2}, 50, Bm25Params{});
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_LE(results[i].score, results[i - 1].score + 1e-12);
}

TEST(QueryExec, IdfDecreasesWithDocumentFrequency) {
  EXPECT_GT(bm25Idf(1000, 1), bm25Idf(1000, 100));
  EXPECT_GT(bm25Idf(1000, 100), bm25Idf(1000, 900));
  EXPECT_GE(bm25Idf(1000, 1000), 0.0);
}

TEST(MergeTopK, TakesBestAcrossShards) {
  std::vector<std::vector<ScoredDoc>> shards{
      {{1, 9.0}, {2, 5.0}},
      {{3, 7.0}, {4, 1.0}},
  };
  const auto merged = mergeTopK(shards, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].doc, 1u);
  EXPECT_EQ(merged[1].doc, 3u);
  EXPECT_EQ(merged[2].doc, 2u);
}

}  // namespace
}  // namespace resex
