// Shared BM25 scoring primitives and query-execution plumbing types.
//
// Every executor (TAAT reference, DAAT block-max, MaxScore, WAND) scores
// with the same formula and the same per-query statistics, so the types
// live here — below block_codec/cursor and query_exec — to keep the
// include graph acyclic: block_codec needs Bm25Params to precompute
// per-block score bounds, cursor needs ExecStats to account for block
// decodes and skips, and query_exec needs both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "search/corpus.hpp"  // TermId

namespace resex {

using DocId = std::uint32_t;

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

struct ScoredDoc {
  DocId doc = 0;   // original document id
  double score = 0.0;
};

struct ExecStats {
  /// Postings decoded (block decodes count every entry in the block).
  std::size_t postingsScanned = 0;
  /// Documents that entered scoring.
  std::size_t candidatesScored = 0;
  /// Posting blocks decoded into a cursor buffer.
  std::size_t blocksDecoded = 0;
  /// Posting blocks passed over without decoding (block-max skipping).
  std::size_t blocksSkipped = 0;
  /// Pruning decisions driven by the top-k heap threshold (shallow
  /// block-bound rejections and global-bound terminations).
  std::size_t heapThresholdPrunes = 0;

  /// Adds every counter of `other` — the one accumulation path for
  /// per-query, per-shard and per-window totals.
  ExecStats& operator+=(const ExecStats& other) noexcept {
    postingsScanned += other.postingsScanned;
    candidatesScored += other.candidatesScored;
    blocksDecoded += other.blocksDecoded;
    blocksSkipped += other.blocksSkipped;
    heapThresholdPrunes += other.heapThresholdPrunes;
    return *this;
  }
};

/// Corpus-wide statistics for scoring. In a document-partitioned engine
/// every shard must score with *global* statistics (brokers broadcast
/// them), or per-shard top-k lists would not be comparable. When null,
/// the index's own (local) statistics are used.
struct GlobalStats {
  std::size_t documentCount = 0;
  double avgDocLength = 0.0;
  /// Global document frequency per term (size == termCount).
  std::vector<std::size_t> documentFrequency;
};

/// BM25 idf with the standard +1 smoothing (never negative).
inline double bm25Idf(std::size_t documentCount, std::size_t documentFrequency) {
  const double n = static_cast<double>(documentCount);
  const double df = static_cast<double>(documentFrequency);
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

/// One term's BM25 contribution to one document.
inline double bm25TermScore(double idf, double tf, double docLength,
                            double avgDocLength, const Bm25Params& params) {
  const double norm =
      params.k1 * (1.0 - params.b + params.b * docLength / std::max(1.0, avgDocLength));
  return idf * (tf * (params.k1 + 1.0)) / (tf + norm);
}

/// Document frequency to score `t` with: the global snapshot when it
/// covers the term, otherwise the shard-local value. A stale or truncated
/// GlobalStats (e.g. a broker broadcasting stats from before a vocabulary
/// grew) must degrade ranking quality, not abort the query.
inline std::size_t effectiveDf(const GlobalStats* global, TermId t,
                               std::size_t localDf) {
  if (global == nullptr) return localDf;
  const auto& df = global->documentFrequency;
  if (t < df.size() && df[t] > 0) return df[t];
  return localDf;
}

}  // namespace resex
