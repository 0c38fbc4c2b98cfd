// Test helper: the document-side BM25 reference scorer. It scores every
// document straight from its term list — no posting lists, no block
// codec, no accumulator — so it checks what the kernels read from the
// index as well as how they accumulate and rank. Per document it adds the
// query's unique terms' bm25TermScore in ascending term order, the
// summation order every executor uses, so a correct kernel matches it bit
// for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "index/inverted_index.hpp"
#include "index/scoring.hpp"

namespace resex {

/// Statistics of `docs` as a broker would broadcast them.
inline GlobalStats corpusStats(const std::vector<Document>& docs,
                               std::uint32_t termCount) {
  GlobalStats stats;
  stats.documentCount = docs.size();
  stats.documentFrequency.assign(termCount, 0);
  double totalLength = 0.0;
  for (const Document& d : docs) {
    for (const TermId t : std::set<TermId>(d.terms.begin(), d.terms.end()))
      ++stats.documentFrequency[t];
    totalLength += static_cast<double>(d.terms.size());
  }
  stats.avgDocLength =
      docs.empty() ? 0.0 : totalLength / static_cast<double>(docs.size());
  return stats;
}

/// The documents of `docs` that `shard` hosts, matched by original id.
inline std::vector<Document> shardDocuments(const std::vector<Document>& docs,
                                            const InvertedIndex& shard) {
  std::unordered_set<DocId> hosted;
  for (std::size_t d = 0; d < shard.documentCount(); ++d)
    hosted.insert(shard.docId(d));
  std::vector<Document> out;
  for (const Document& doc : docs)
    if (hosted.contains(doc.id)) out.push_back(doc);
  return out;
}

/// Top-k of `docs` by BM25 under `stats` (score descending, ties by
/// ascending doc id) over every document holding a query term. A term the
/// snapshot does not cover (past the end of its df vector, or a zero
/// entry) is scored with its df within `docs`.
inline std::vector<ScoredDoc> bruteForce(const std::vector<Document>& docs,
                                         const GlobalStats& stats,
                                         const std::vector<TermId>& queryTerms,
                                         std::size_t k, const Bm25Params& params) {
  std::vector<TermId> unique(queryTerms);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  // tf[d * width + q]: occurrences of unique[q] in docs[d].
  const std::size_t width = unique.size();
  std::vector<std::size_t> localDf(width, 0);
  std::vector<std::uint32_t> tf(docs.size() * width, 0);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (const TermId t : docs[d].terms) {
      const auto it = std::lower_bound(unique.begin(), unique.end(), t);
      if (it != unique.end() && *it == t) ++tf[d * width + (it - unique.begin())];
    }
    for (std::size_t q = 0; q < width; ++q) localDf[q] += tf[d * width + q] > 0;
  }

  std::vector<ScoredDoc> scored;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const double length = static_cast<double>(docs[d].terms.size());
    double score = 0.0;
    bool matched = false;
    for (std::size_t q = 0; q < width; ++q) {
      const std::uint32_t f = tf[d * width + q];
      if (f == 0) continue;
      matched = true;
      const TermId t = unique[q];
      const std::size_t df =
          t < stats.documentFrequency.size() && stats.documentFrequency[t] > 0
              ? stats.documentFrequency[t]
              : localDf[q];
      score += bm25TermScore(bm25Idf(stats.documentCount, df), f, length,
                             stats.avgDocLength, params);
    }
    if (!matched) continue;
    scored.push_back(ScoredDoc{docs[d].id, score});
  }
  std::sort(scored.begin(), scored.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

/// bruteForce over a whole corpus with its own statistics.
inline std::vector<ScoredDoc> bruteForce(const std::vector<Document>& docs,
                                         std::uint32_t termCount,
                                         const std::vector<TermId>& queryTerms,
                                         std::size_t k, const Bm25Params& params) {
  return bruteForce(docs, corpusStats(docs, termCount), queryTerms, k, params);
}

}  // namespace resex
