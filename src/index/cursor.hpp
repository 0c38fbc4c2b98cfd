// Posting-list cursors and per-query scratch arenas — the zero-allocation
// substrate of every query executor.
//
// A TermCursor walks one BlockPostingList document-at-a-time but decodes
// lazily: positioning on a block's first document and skipping past whole
// blocks (nextGeq) only touch the block metadata; the payload is decoded
// into a reusable CursorBuffer the first time a frequency or an intra-block
// position is actually needed. The conjunctive path, MaxScore and WAND
// drive cursors; the disjunctive scan decodes whole lists into a cursor
// buffer. QueryScratch owns every buffer a query needs (cursor buffers,
// heap storage, dense accumulator), so a warmed-up worker executes queries
// with zero heap allocation; QueryBroker workers each own one, and a
// thread_local fallback serves the convenience APIs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/block_codec.hpp"

namespace resex {

/// Decode target for one cursor's current block.
struct CursorBuffer {
  std::array<DocId, kPostingBlockSize> docs;
  std::array<std::uint32_t, kPostingBlockSize> freqs;
};

/// Forward iterator over one posting list. doc() is valid immediately
/// after positioning on a block (no decode); freq() and intra-block
/// advances force the decode.
class TermCursor {
 public:
  /// Keeps a copy of the view; the planes it points into must outlive the
  /// cursor's use.
  void init(const BlockPostingList& list, double idf, double upperBound,
            CursorBuffer* buffer, ExecStats* stats) {
    list_ = list;
    buffer_ = buffer;
    stats_ = stats;
    idf_ = idf;
    upperBound_ = upperBound;
    block_ = 0;
    loadBlockFront();
  }

  bool exhausted() const noexcept { return meta_ == nullptr; }
  DocId doc() const noexcept { return cur_; }
  double idf() const noexcept { return idf_; }
  /// Global (whole-list) upper bound on this term's contribution.
  double upperBound() const noexcept { return upperBound_; }
  std::size_t documentCount() const noexcept { return list_.documentCount(); }

  std::uint32_t freq() {
    ensureDecoded();
    return buffer_->freqs[pos_];
  }

  /// Advances one posting (decodes the current block if needed).
  void next() {
    ensureDecoded();
    ++pos_;
    if (pos_ >= count_) {
      ++block_;
      loadBlockFront();
    } else {
      cur_ = buffer_->docs[pos_];
    }
  }

  /// Advances to the first posting with doc id >= target. Whole blocks
  /// whose lastDoc < target are passed over without decoding; landing on
  /// a block's first document keeps the block undecoded.
  void nextGeq(DocId target) {
    if (meta_ == nullptr || cur_ >= target) return;
    if (meta_->lastDoc < target) {
      if (!decoded_ && stats_ != nullptr) ++stats_->blocksSkipped;
      for (;;) {
        ++block_;
        if (block_ >= list_.blockCount()) {
          meta_ = nullptr;
          return;
        }
        if (list_.block(block_).lastDoc >= target) break;
        if (stats_ != nullptr) ++stats_->blocksSkipped;
      }
      loadBlockFront();
      if (cur_ >= target) return;
    }
    ensureDecoded();
    // docs[pos_] = cur_ < target and docs[count_-1] = lastDoc >= target.
    std::uint32_t lo = pos_;
    std::uint32_t hi = count_ - 1;
    while (lo + 1 < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (buffer_->docs[mid] < target)
        lo = mid;
      else
        hi = mid;
    }
    pos_ = hi;
    cur_ = buffer_->docs[pos_];
  }

 private:
  void loadBlockFront() noexcept {
    if (block_ >= list_.blockCount()) {
      meta_ = nullptr;
      return;
    }
    meta_ = &list_.block(block_);
    pos_ = 0;
    count_ = meta_->count;
    decoded_ = false;
    cur_ = meta_->firstDoc;
  }

  void ensureDecoded() {
    if (decoded_) return;
    list_.decodeBlock(block_, buffer_->docs.data(), buffer_->freqs.data());
    decoded_ = true;
    if (stats_ != nullptr) {
      ++stats_->blocksDecoded;
      stats_->postingsScanned += count_;
    }
  }

  BlockPostingList list_;
  const PostingBlockMeta* meta_ = nullptr;  // null once exhausted
  CursorBuffer* buffer_ = nullptr;
  ExecStats* stats_ = nullptr;
  DocId cur_ = 0;
  std::uint32_t pos_ = 0;
  std::uint32_t count_ = 0;
  std::size_t block_ = 0;
  bool decoded_ = false;
  double idf_ = 0.0;
  double upperBound_ = 0.0;
};

/// Bounded top-k min-heap over caller-owned storage. The top is the entry
/// the next candidate must beat under the (score desc, doc asc) result
/// order; threshold() is the score MaxScore and WAND must beat.
class TopKHeap {
 public:
  void reset(std::vector<ScoredDoc>* storage, std::size_t k) {
    storage_ = storage;
    storage_->clear();
    k_ = k;
  }

  std::size_t size() const noexcept { return storage_->size(); }

  double threshold() const noexcept {
    return storage_->size() < k_ ? -1.0 : storage_->front().score;
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
class QueryScratch {
 public:
  /// Decode buffer for cursor `i` (grown on first use, then stable).
  CursorBuffer& buffer(std::size_t i) {
    while (buffers_.size() <= i)
      buffers_.push_back(std::make_unique<CursorBuffer>());
    return *buffers_[i];
  }

  std::vector<TermId> terms;          // deduplicated query terms
  std::vector<TermCursor> cursors;    // one per non-empty posting list
  std::vector<std::size_t> order;     // cursor ordering workspace
  std::vector<double> cumBound;       // MaxScore prefix bounds
  std::vector<ScoredDoc> heapStorage;
  TopKHeap heap;
  ExecStats exec;                     // reset by each executor invocation

  // Disjunctive scan: dense accumulator kept all-zero between queries
  // (only `touched` entries are written and cleared).
  std::vector<double> acc;
  std::vector<DocId> touched;

 private:
  std::vector<std::unique_ptr<CursorBuffer>> buffers_;
};

/// Per-thread scratch for callers without an explicit arena (tests,
/// examples, single-shot tools).
QueryScratch& threadLocalQueryScratch();

}  // namespace resex
