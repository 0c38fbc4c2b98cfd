#include "index/query_exec.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "index/partition.hpp"

namespace resex {
namespace {

/// Naive reference: score every document by brute force.
std::vector<ScoredDoc> bruteForce(const std::vector<Document>& docs,
                                  std::uint32_t termCount,
                                  const std::vector<TermId>& queryTerms,
                                  std::size_t k, bool conjunctive,
                                  const Bm25Params& params) {
  // Corpus stats.
  std::vector<std::size_t> df(termCount, 0);
  double totalLength = 0.0;
  for (const Document& d : docs) {
    std::set<TermId> seen(d.terms.begin(), d.terms.end());
    for (const TermId t : seen) ++df[t];
    totalLength += static_cast<double>(d.terms.size());
  }
  const double avgLength = docs.empty() ? 0.0 : totalLength / docs.size();

  std::set<TermId> unique(queryTerms.begin(), queryTerms.end());
  std::vector<ScoredDoc> scored;
  for (const Document& d : docs) {
    std::map<TermId, int> tf;
    for (const TermId t : d.terms) ++tf[t];
    double score = 0.0;
    bool all = true;
    for (const TermId t : unique) {
      const auto it = tf.find(t);
      if (it == tf.end()) {
        all = false;
        continue;
      }
      const double idf = bm25Idf(docs.size(), df[t]);
      const double norm =
          params.k1 *
          (1.0 - params.b + params.b * d.terms.size() / std::max(1.0, avgLength));
      score += idf * (it->second * (params.k1 + 1.0)) / (it->second + norm);
    }
    if (conjunctive && !all) continue;
    if (!conjunctive && score == 0.0) continue;
    scored.push_back(ScoredDoc{d.id, score});
  }
  std::sort(scored.begin(), scored.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

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
  for (const std::vector<TermId> query :
       {std::vector<TermId>{0}, {5, 40}, {1, 2, 3}, {100, 200, 250}}) {
    const auto fast = topKDisjunctive(f.index, query, 10, Bm25Params{});
    const auto slow = bruteForce(f.docs, f.config.termCount, query, 10, false, {});
    expectSameResults(fast, slow);
  }
}

TEST(QueryExec, ConjunctiveMatchesBruteForce) {
  Fixture f;
  for (const std::vector<TermId> query :
       {std::vector<TermId>{0}, {0, 1}, {2, 5, 9}, {150, 3}}) {
    const auto fast = topKConjunctive(f.index, query, 10, Bm25Params{});
    const auto slow = bruteForce(f.docs, f.config.termCount, query, 10, true, {});
    expectSameResults(fast, slow);
  }
}

TEST(QueryExec, ConjunctiveIsSubsetOfDisjunctive) {
  Fixture f;
  const std::vector<TermId> query{1, 4};
  const auto andDocs = topKConjunctive(f.index, query, 1000, Bm25Params{});
  const auto orDocs = topKDisjunctive(f.index, query, 100000, Bm25Params{});
  std::set<DocId> orSet;
  for (const auto& d : orDocs) orSet.insert(d.doc);
  for (const auto& d : andDocs) EXPECT_TRUE(orSet.contains(d.doc));
  EXPECT_LE(andDocs.size(), orDocs.size());
}

TEST(QueryExec, DuplicateQueryTermsDoNotDoubleCount) {
  Fixture f;
  const auto once = topKDisjunctive(f.index, {3}, 5, Bm25Params{});
  const auto twice = topKDisjunctive(f.index, {3, 3}, 5, Bm25Params{});
  expectSameResults(twice, once);
}

TEST(QueryExec, EmptyQueryAndEmptyTermBehave) {
  Fixture f;
  EXPECT_TRUE(topKConjunctive(f.index, {}, 10, Bm25Params{}).empty());
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
    EXPECT_TRUE(topKConjunctive(f.index, {0, empty}, 10, Bm25Params{}).empty());
    EXPECT_TRUE(topKDisjunctive(f.index, {empty}, 10, Bm25Params{}).empty());
  }
}

// topKDisjunctive is the block-max WAND core: degenerate inputs return
// nothing rather than touching a cursor.
TEST(BlockMaxWand, DegenerateInputs) {
  Fixture f;
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKDisjunctive(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(QueryExec, StatsCountScannedPostings) {
  Fixture f;
  ExecStats stats;
  topKDisjunctiveTaat(f.index, {0, 1}, 10, Bm25Params{}, &stats);
  EXPECT_EQ(stats.postingsScanned,
            f.index.documentFrequency(0) + f.index.documentFrequency(1));
  EXPECT_GT(stats.candidatesScored, 0u);
  // The DAAT path prunes: it never scans more than the exhaustive count.
  ExecStats daat;
  topKDisjunctive(f.index, {0, 1}, 10, Bm25Params{}, &daat);
  EXPECT_GT(daat.postingsScanned, 0u);
  EXPECT_LE(daat.postingsScanned, stats.postingsScanned);
}

TEST(QueryExec, TaatMatchesBruteForce) {
  Fixture f;
  for (const std::vector<TermId> query :
       {std::vector<TermId>{0}, {5, 40}, {1, 2, 3}, {100, 200, 250}}) {
    const auto fast = topKDisjunctiveTaat(f.index, query, 10, Bm25Params{});
    const auto slow = bruteForce(f.docs, f.config.termCount, query, 10, false, {});
    expectSameResults(fast, slow);
  }
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
