// A compact in-memory inverted index over synthetic documents.
//
// This is the materialized counterpart of the statistical search substrate
// in src/search: real posting lists (block-compressed document ids plus
// term frequencies with per-block block-max metadata — see block_codec.hpp),
// BM25 scoring, and query execution that counts the postings it actually
// touches. The partition module builds one index per shard so per-shard
// query cost can be *measured* instead of modelled — and a test
// cross-checks the two.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "index/block_codec.hpp"
#include "index/segment.hpp"
#include "search/corpus.hpp"  // TermId

namespace resex {

/// Posting lists are block-compressed; the flat-VByte PostingList this
/// alias replaced had the same decode() surface.
using PostingList = BlockPostingList;

/// A document as a bag of terms (duplicates = term frequency).
struct Document {
  DocId id = 0;
  std::vector<TermId> terms;
};

/// Immutable inverted index: the five segment planes (see segment.hpp).
/// The planes sit either in heap buffers (built from documents) or in an
/// mmap'd segment file; postings() hands out views over them either way,
/// built from the term's directory row, so an index keeps no per-term
/// object of its own.
class InvertedIndex {
 public:
  /// Builds the planes from `documents` in two passes — document
  /// frequencies first, then flat doc/frequency arrays that each term's
  /// list is encoded from into one shared payload buffer and one shared
  /// meta buffer. Documents may arrive in any id order; ids must be unique.
  InvertedIndex(std::uint32_t termCount, const std::vector<Document>& documents);

  /// Opens an index over an mmap'd segment file: every plane, posting
  /// lists and doc-length/doc-id planes alike, is read in place (the
  /// segment is kept alive for the index's lifetime). The segment was
  /// fully validated when it was mapped.
  explicit InvertedIndex(std::shared_ptr<const MappedSegment> segment);

  std::uint32_t termCount() const noexcept { return planes_.termCount(); }
  std::size_t documentCount() const noexcept { return planes_.docLengths.size(); }
  /// Number of documents containing `term`.
  std::size_t documentFrequency(TermId term) const {
    return planes_.directory[checkedTerm(term)].postingCount;
  }
  /// Zero-copy view of `term`'s list; valid while this index lives.
  PostingList postings(TermId term) const {
    return planes_.postings(checkedTerm(term));
  }
  /// Length (token count) of a document by *dense* index (see docId()).
  std::uint32_t docLength(std::size_t denseIndex) const {
    return planes_.docLengths[checkedDense(denseIndex)];
  }
  /// Original document id of a dense index.
  DocId docId(std::size_t denseIndex) const {
    return planes_.docIds[checkedDense(denseIndex)];
  }
  double averageDocLength() const noexcept { return planes_.avgDocLength; }
  /// BM25 parameters the per-block score bounds were computed with.
  Bm25Params builtParams() const noexcept { return planes_.params; }
  /// The planes this index serves from (what writeSegment persists).
  const SegmentPlanes& planes() const noexcept { return planes_; }
  /// The backing segment, or nullptr for an index built from documents.
  const std::shared_ptr<const MappedSegment>& segment() const noexcept {
    return segment_;
  }
  /// Total compressed posting bytes (payload + block metadata).
  std::size_t indexBytes() const noexcept {
    return planes_.payload.size() + planes_.metas.size_bytes();
  }
  /// Total postings (sum of document frequencies).
  std::size_t totalPostings() const noexcept { return planes_.totalPostings; }
  /// Bytes this index keeps resident to serve queries: its five planes —
  /// indexBytes() plus the payload read pad, the doc-length and doc-id
  /// planes, and the directory.
  std::size_t residentBytes() const noexcept {
    return indexBytes() + kPayloadPadBytes + planes_.docLengths.size_bytes() +
           planes_.docIds.size_bytes() + planes_.directory.size_bytes();
  }

 private:
  /// Heap buffers behind the planes of an index built from documents.
  struct HeapPlanes {
    std::vector<std::uint8_t> payload;  // encoded bytes + kPayloadPadBytes
    std::vector<PostingBlockMeta> metas;
    std::vector<std::uint32_t> docLengths;
    std::vector<DocId> docIds;
    std::vector<SegmentTermEntry> directory;
  };

  std::size_t checkedDense(std::size_t denseIndex) const {
    if (denseIndex >= planes_.docLengths.size())
      throw std::out_of_range("InvertedIndex: dense index out of range");
    return denseIndex;
  }
  TermId checkedTerm(TermId term) const {
    if (term >= planes_.termCount())
      throw std::out_of_range("InvertedIndex: term out of range");
    return term;
  }

  SegmentPlanes planes_;
  // Exactly one of these owns the bytes planes_ points into.
  std::shared_ptr<const MappedSegment> segment_;
  std::unique_ptr<const HeapPlanes> heap_;
};

}  // namespace resex
