// Query execution over an InvertedIndex: BM25-scored disjunctive top-k,
// with work accounting (postings touched).
//
// The one kernel, which every broker worker runs, is an exhaustive
// term-at-a-time scan: each query term's list is decoded block by block
// and every posting's BM25 contribution is added into a dense per-shard
// accumulator, in sorted-unique-term order, so a document's score is the
// same floating-point sum whichever caller asks. Touched documents then
// stream through a bounded top-k heap. All state lives in a reusable
// QueryScratch arena (zero steady-state allocation — the *Into variant
// returns a view into the arena). It was chosen over block-max DAAT,
// MaxScore and WAND by measurement: on corpora whose terms are drawn
// independently per document, block bounds prune almost nothing, and the
// scan does the same work with fewer branches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "index/cursor.hpp"
#include "index/inverted_index.hpp"
#include "index/scoring.hpp"

namespace resex {

/// Disjunctive (OR) top-k by BM25: the exhaustive scan, sorted by
/// descending score, ties by ascending doc id. postingsScanned and
/// blocksDecoded count every list of the query in full. Each call counts
/// into `query.algo.disjunctive`, `query.latency_us` and
/// `query.blocks_decoded`.
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

/// Merges per-shard top-k lists into a global top-k (scatter-gather
/// reduce step of a document-partitioned engine).
std::vector<ScoredDoc> mergeTopK(const std::vector<std::vector<ScoredDoc>>& perShard,
                                 std::size_t k);

}  // namespace resex
