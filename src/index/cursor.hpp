// Per-query scratch arenas — the zero-allocation substrate of the query
// kernel.
//
// The exhaustive disjunctive scan decodes each query term's posting list
// block by block into one reusable CursorBuffer and streams the touched
// documents through a bounded TopKHeap. QueryScratch owns every buffer a
// query needs (decode buffer, heap storage, dense accumulator), so a
// warmed-up worker executes queries with zero heap allocation; QueryBroker
// workers each own one, and a thread_local fallback serves the convenience
// APIs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/block_codec.hpp"

namespace resex {

/// Decode target for one posting block.
struct CursorBuffer {
  std::array<DocId, kPostingBlockSize> docs;
  std::array<std::uint32_t, kPostingBlockSize> freqs;
};

/// Bounded top-k min-heap over caller-owned storage. The top is the entry
/// the next candidate must beat under the (score desc, doc asc) result
/// order.
class TopKHeap {
 public:
  void reset(std::vector<ScoredDoc>* storage, std::size_t k) {
    storage_ = storage;
    storage_->clear();
    k_ = k;
  }

  void offer(double score, DocId doc) {
    std::vector<ScoredDoc>& h = *storage_;
    if (h.size() < k_) {
      h.push_back(ScoredDoc{doc, score});
      std::push_heap(h.begin(), h.end(), isBetter);
    } else if (score > h.front().score ||
               (score == h.front().score && doc < h.front().doc)) {
      std::pop_heap(h.begin(), h.end(), isBetter);
      h.back() = ScoredDoc{doc, score};
      std::push_heap(h.begin(), h.end(), isBetter);
    }
  }

  /// Sorts the storage into final result order and returns a view of it
  /// (valid until the storage is next reused).
  std::span<const ScoredDoc> finish() {
    std::sort(storage_->begin(), storage_->end(), isBetter);
    return {storage_->data(), storage_->size()};
  }

  /// Result order: score descending, ties by ascending doc id. As a heap
  /// comparator this puts the *worst* kept entry at the front.
  static bool isBetter(const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }

 private:
  std::vector<ScoredDoc>* storage_ = nullptr;
  std::size_t k_ = 0;
};

/// All mutable per-query state, owned by one worker thread and reused
/// across queries: after warm-up every buffer has reached its steady-state
/// capacity and query execution allocates nothing. Not thread-safe — one
/// scratch per thread (QueryBroker workers own theirs; standalone callers
/// get threadLocalQueryScratch()).
struct QueryScratch {
  CursorBuffer buffer;                // the block the scan decodes into
  std::vector<TermId> terms;          // deduplicated query terms
  std::vector<ScoredDoc> heapStorage;
  TopKHeap heap;
  ExecStats exec;                     // reset by each executor invocation

  // Dense accumulator kept all-zero between queries (only `touched`
  // entries are written and cleared).
  std::vector<double> acc;
  std::vector<DocId> touched;
};

/// Per-thread scratch for callers without an explicit arena (tests,
/// examples, single-shot tools).
QueryScratch& threadLocalQueryScratch();

}  // namespace resex
