// Query execution over an InvertedIndex: BM25-scored disjunctive top-k and
// conjunctive (AND) retrieval, with work accounting (postings touched).
//
// The disjunctive kernel every broker worker runs is an exhaustive
// term-at-a-time scan: each query term's list is decoded block by block
// and every posting's BM25 contribution is added into a dense per-shard
// accumulator, in sorted-unique-term order, so a document's score is the
// same floating-point sum whichever caller asks. Touched documents then
// stream through a bounded top-k heap. All state lives in a reusable
// QueryScratch arena (zero steady-state allocation — the *Into variants
// return views into the arena). It was chosen over block-max DAAT by
// measurement: on corpora whose terms are drawn independently per
// document, block bounds prune almost nothing, and the scan does the same
// work with fewer branches. The pruning executors (MaxScore, WAND, the
// hybrid) and the conjunctive path are bench and CLI tools measured
// against it.
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
/// Shared query-path instruments: every top-k executor (disjunctive,
/// conjunctive, MaxScore, WAND) records into the same `query.latency_us` histogram and
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
/// effectiveDf).
ScoreContext buildCursors(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const Bm25Params& params, const GlobalStats* global,
                          QueryScratch& scratch);

/// Accumulates scratch.exec into `stats` (may be null) and records the
/// block counters (`query.blocks_decoded` / `query.blocks_skipped`).
void finishExec(const QueryScratch& scratch, ExecStats* stats);
}  // namespace detail

/// Disjunctive (OR) top-k by BM25: the exhaustive scan, sorted by
/// descending score, ties by ascending doc id. postingsScanned and
/// blocksDecoded count every list of the query in full.
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

/// The exhaustive reference the pruning executors are checked and measured
/// against: the same scorer as topKDisjunctive, under the name their tests
/// and benches use.
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
