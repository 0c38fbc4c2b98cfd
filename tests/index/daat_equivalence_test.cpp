// The serving kernel against the document-side reference (brute_force.hpp):
// bit-identical results — same documents, same scores, no tolerance. Both
// sum per-term contributions in sorted-unique-term order, so even the
// floating-point summation agrees.

#include <gtest/gtest.h>

#include "index/brute_force.hpp"
#include "index/partition.hpp"
#include "index/query_exec.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

void expectBitIdentical(const std::vector<ScoredDoc>& kernel,
                        const std::vector<ScoredDoc>& reference) {
  ASSERT_EQ(kernel.size(), reference.size());
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_EQ(kernel[i].doc, reference[i].doc) << "rank " << i;
    EXPECT_EQ(kernel[i].score, reference[i].score) << "rank " << i;
  }
}

std::vector<TermId> randomQuery(Rng& rng, const ZipfSampler& termPick,
                                std::size_t maxTerms) {
  std::vector<TermId> query;
  const std::size_t len = 1 + rng.below(maxTerms);
  for (std::size_t i = 0; i < len; ++i)
    query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
  return query;
}

TEST(DaatEquivalence, IdenticalResultsAcrossSeededCorpora) {
  for (const std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    SyntheticDocConfig config{
        .seed = seed, .docCount = 2500, .termCount = 500, .termExponent = 1.0};
    const auto docs = generateDocuments(config);
    const InvertedIndex index(config.termCount, docs);
    const GlobalStats stats = corpusStats(docs, config.termCount);
    Rng rng(seed + 7);
    const ZipfSampler termPick(config.termCount, 0.9);
    for (int q = 0; q < 120; ++q) {
      const auto query = randomQuery(rng, termPick, 4);
      // The reference's top-100 holds every smaller k's answer as a prefix.
      const auto reference = bruteForce(docs, stats, query, 100, {});
      for (const std::size_t k : {1u, 10u, 100u})
        expectBitIdentical(
            topKDisjunctive(index, query, k, Bm25Params{}),
            {reference.begin(),
             reference.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(k, reference.size()))});
    }
  }
}

TEST(DaatEquivalence, IdenticalUnderGlobalStatsAcrossShards) {
  SyntheticDocConfig config{
      .seed = 203, .docCount = 3000, .termCount = 400, .termExponent = 1.0};
  const auto docs = generateDocuments(config);
  const PartitionedIndex part(config.termCount, docs, 3);
  // The reference derives the broadcast statistics from the documents.
  const GlobalStats global = corpusStats(docs, config.termCount);
  ASSERT_EQ(global.documentCount, part.globalStats().documentCount);
  ASSERT_EQ(global.avgDocLength, part.globalStats().avgDocLength);
  ASSERT_EQ(global.documentFrequency, part.globalStats().documentFrequency);
  std::vector<std::vector<Document>> shardDocs;
  for (std::size_t s = 0; s < part.shardCount(); ++s)
    shardDocs.push_back(shardDocuments(docs, part.shard(s)));
  Rng rng(9);
  const ZipfSampler termPick(config.termCount, 1.0);
  for (int q = 0; q < 60; ++q) {
    const auto query = randomQuery(rng, termPick, 3);
    for (std::size_t s = 0; s < part.shardCount(); ++s)
      expectBitIdentical(topKDisjunctive(part.shard(s), query, 10, Bm25Params{},
                                         nullptr, &part.globalStats()),
                         bruteForce(shardDocs[s], global, query, 10, {}));
  }
}

TEST(DaatEquivalence, StaleGlobalStatsFallBackToShardLocalDf) {
  // Regression: a global-stats snapshot whose documentFrequency vector is
  // truncated (stale broadcast, new vocabulary) or zero-filled used to
  // throw out of `documentFrequency.at(t)`. The kernel now degrades to
  // the shard-local df for exactly those terms.
  SyntheticDocConfig config{.seed = 31, .docCount = 1500, .termCount = 300};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  const std::vector<TermId> query{1, 150, 299};

  // Whole-index "global" stats with an empty df vector: every term falls
  // back to its local df, which here *is* the global df — results must be
  // identical to scoring without global stats at all.
  GlobalStats stale;
  stale.documentCount = index.documentCount();
  stale.avgDocLength = index.averageDocLength();
  const auto local = topKDisjunctive(index, query, 10, Bm25Params{});
  expectBitIdentical(local, bruteForce(docs, config.termCount, query, 10, {}));
  expectBitIdentical(
      topKDisjunctive(index, query, 10, Bm25Params{}, nullptr, &stale), local);

  // Zero-filled entries (term known but count lost) fall back the same way.
  stale.documentFrequency.assign(config.termCount, 0);
  expectBitIdentical(
      topKDisjunctive(index, query, 10, Bm25Params{}, nullptr, &stale), local);

  // Partially-truncated vector: terms below the cut use the snapshot,
  // terms above fall back; nothing throws, and each shard matches the
  // reference scoring its own documents with the same snapshot.
  const PartitionedIndex part(config.termCount, docs, 2);
  GlobalStats truncated = part.globalStats();
  truncated.documentFrequency.resize(150);
  for (std::size_t s = 0; s < part.shardCount(); ++s)
    expectBitIdentical(topKDisjunctive(part.shard(s), query, 10, Bm25Params{},
                                       nullptr, &truncated),
                       bruteForce(shardDocuments(docs, part.shard(s)), truncated,
                                  query, 10, {}));
}

TEST(DaatEquivalence, TiesBreakByAscendingDocId) {
  // Every document appears twice, once with id d and once with id d+n: each
  // score is shared by at least two documents, so every cut of the top-k
  // falls among ties, which must keep the lower ids.
  SyntheticDocConfig config{.seed = 61, .docCount = 600, .termCount = 200};
  auto docs = generateDocuments(config);
  const std::size_t n = docs.size();
  for (std::size_t d = 0; d < n; ++d)
    docs.push_back(Document{static_cast<DocId>(n + d), docs[d].terms});
  const InvertedIndex index(config.termCount, docs);
  const GlobalStats stats = corpusStats(docs, config.termCount);
  Rng rng(5);
  const ZipfSampler termPick(config.termCount, 0.9);
  std::size_t tiedPairs = 0;
  for (int q = 0; q < 40; ++q) {
    const auto query = randomQuery(rng, termPick, 3);
    for (const std::size_t k : {1u, 5u, 11u}) {
      const auto results = topKDisjunctive(index, query, k, Bm25Params{});
      expectBitIdentical(results, bruteForce(docs, stats, query, k, {}));
      for (std::size_t i = 1; i < results.size(); ++i)
        tiedPairs += results[i].score == results[i - 1].score;
    }
  }
  EXPECT_GT(tiedPairs, 0u);
}

TEST(DaatEquivalence, DuplicateAndAbsentTermsMatchBruteForce) {
  SyntheticDocConfig config{
      .seed = 71, .docCount = 400, .termCount = 3000, .termExponent = 1.2};
  const auto docs = generateDocuments(config);
  const PartitionedIndex part(config.termCount, docs, 2);
  const InvertedIndex whole(config.termCount, docs);
  // A term no document holds, and one that only some shard lacks.
  TermId absent = 0;
  TermId oneShard = 0;
  for (TermId t = 0; t < config.termCount; ++t) {
    if (whole.documentFrequency(t) == 0) absent = t;
    if (part.shard(0).documentFrequency(t) == 0 &&
        part.shard(1).documentFrequency(t) > 0)
      oneShard = t;
  }
  ASSERT_EQ(whole.documentFrequency(absent), 0u);
  ASSERT_GT(part.shard(1).documentFrequency(oneShard), 0u);
  const GlobalStats global = corpusStats(docs, config.termCount);
  const std::vector<std::vector<TermId>> queries{
      {3, 3},          {absent},           {absent, absent},
      {7, absent, 7},  {oneShard, 2, 2},   {oneShard, absent, 0, 0, 5}};
  for (const auto& query : queries) {
    expectBitIdentical(topKDisjunctive(whole, query, 10, Bm25Params{}),
                       bruteForce(docs, config.termCount, query, 10, {}));
    for (std::size_t s = 0; s < part.shardCount(); ++s)
      expectBitIdentical(topKDisjunctive(part.shard(s), query, 10, Bm25Params{},
                                         nullptr, &part.globalStats()),
                         bruteForce(shardDocuments(docs, part.shard(s)), global,
                                    query, 10, {}));
  }
  EXPECT_TRUE(topKDisjunctive(whole, {absent}, 10, Bm25Params{}).empty());
}

TEST(DaatEquivalence, KAboveMatchCountAndKZero) {
  SyntheticDocConfig config{.seed = 83, .docCount = 900, .termCount = 300};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  const std::vector<TermId> query{4, 60, 210};
  // k above the match count returns every matching document, ranked.
  ExecStats stats;
  const auto all = topKDisjunctive(index, query, 1 << 20, Bm25Params{}, &stats);
  expectBitIdentical(all, bruteForce(docs, config.termCount, query, 1 << 20, {}));
  EXPECT_EQ(all.size(), stats.candidatesScored);
  EXPECT_LT(all.size(), docs.size());
  // k = 0 returns nothing and does no work.
  ExecStats none;
  EXPECT_TRUE(topKDisjunctive(index, query, 0, Bm25Params{}, &none).empty());
  EXPECT_EQ(none.postingsScanned, 0u);
  EXPECT_EQ(none.candidatesScored, 0u);
}

TEST(DaatEquivalence, IntoVariantReusesOneScratchAcrossQueries) {
  SyntheticDocConfig config{.seed = 53, .docCount = 1200, .termCount = 250};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  const GlobalStats stats = corpusStats(docs, config.termCount);
  QueryScratch scratch;
  Rng rng(3);
  const ZipfSampler termPick(config.termCount, 0.9);
  for (int q = 0; q < 80; ++q) {
    const auto query = randomQuery(rng, termPick, 3);
    const auto view = topKDisjunctiveInto(index, query, 10, Bm25Params{}, scratch);
    const std::vector<ScoredDoc> copied(view.begin(), view.end());
    expectBitIdentical(copied, bruteForce(docs, stats, query, 10, {}));
  }
}

}  // namespace
}  // namespace resex
