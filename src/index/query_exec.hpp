// Query execution over an InvertedIndex: BM25-scored disjunctive top-k and
// conjunctive (AND) retrieval, with work accounting (postings touched).
//
// topKDisjunctive runs document-at-a-time with block-max skipping (Ding &
// Suel): cursors advance block-by-block over the block codec, whole blocks
// are passed over without decoding when their metadata bound cannot beat
// the top-k heap threshold, and all state lives in a reusable QueryScratch
// arena (zero steady-state allocation — the *Into variants return views
// into the arena). topKDisjunctiveTaat is the exhaustive term-at-a-time
// reference: it scores every posting of every query term, returns results
// identical to the DAAT path, and is the work baseline the pruning
// literature (and fig12_pruning) measures against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "index/cursor.hpp"
#include "index/inverted_index.hpp"
#include "index/scoring.hpp"
#include "obs/metrics.hpp"

namespace resex {

namespace detail {
/// Shared query-path instruments: every top-k executor (TAAT, DAAT,
/// MaxScore, WAND) records into the same `query.latency_us` histogram and
/// a per-algorithm `query.algo.<name>` counter.
obs::Histogram& queryLatencyHistogram();
obs::Counter& queryCounter(const char* algo);

/// Per-query scoring context resolved from global-vs-local statistics.
struct ScoreContext {
  std::size_t docCount = 0;
  double avgLen = 0.0;
};

/// Deduplicates `terms` into scratch.terms, resets scratch.exec, and
/// initializes one cursor per non-empty posting list (idf from
/// effectiveDf, block bounds marked precise when the query statistics
/// match the list's build statistics).
ScoreContext buildCursors(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const Bm25Params& params, const GlobalStats* global,
                          QueryScratch& scratch);

/// Accumulates scratch.exec into `stats` (may be null) and records the
/// block counters (`query.blocks_decoded` / `query.blocks_skipped` /
/// `query.heap_threshold_prunes`).
void finishExec(const QueryScratch& scratch, ExecStats* stats);
}  // namespace detail

/// Disjunctive (OR) top-k by BM25 — document-at-a-time with block-max
/// skipping; results are exactly the exhaustive top-k (sorted by
/// descending score, ties by ascending doc id).
std::vector<ScoredDoc> topKDisjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats = nullptr,
                                       const GlobalStats* global = nullptr);

/// topKDisjunctive into a caller-owned scratch arena: the returned view
/// aliases scratch storage and stays valid until the scratch is reused.
/// Allocation-free once the arena is warm.
std::span<const ScoredDoc> topKDisjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats = nullptr,
    const GlobalStats* global = nullptr);

/// Exhaustive term-at-a-time reference: every posting of every query term
/// is decoded and scored into a dense accumulator. Same results as
/// topKDisjunctive; postingsScanned counts the full lists.
std::vector<ScoredDoc> topKDisjunctiveTaat(const InvertedIndex& index,
                                           const std::vector<TermId>& terms,
                                           std::size_t k, const Bm25Params& params,
                                           ExecStats* stats = nullptr,
                                           const GlobalStats* global = nullptr);

/// Conjunctive (AND): documents containing every term, scored by BM25,
/// top-k. Cursor-based leapfrog intersection driven by the rarest list;
/// blocks the candidate set skips over are never decoded.
std::vector<ScoredDoc> topKConjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats = nullptr,
                                       const GlobalStats* global = nullptr);

/// topKConjunctive into a caller-owned scratch arena (see
/// topKDisjunctiveInto for the aliasing contract).
std::span<const ScoredDoc> topKConjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats = nullptr,
    const GlobalStats* global = nullptr);

/// Merges per-shard top-k lists into a global top-k (scatter-gather
/// reduce step of a document-partitioned engine).
std::vector<ScoredDoc> mergeTopK(const std::vector<std::vector<ScoredDoc>>& perShard,
                                 std::size_t k);

}  // namespace resex
