// On-disk shard segment format: the persisted, mmap-able form of an
// InvertedIndex — the physical file a migration copies and a broker serves
// from without deserializing.
//
// File layout (version 1, strictly little-endian, 4 KiB pages):
//
//   page 0   SegmentHeader   magic, version, endian mark, page size, CRC
//   plane 0  payload         every term's block payload bytes, in term
//                            order, + 8 zero pad bytes (unpack slack)
//   plane 1  meta            PostingBlockMeta[totalBlocks], term order
//   plane 2  doclen          u32 document length per dense doc index
//   plane 3  docid           u32 original doc id per dense doc index
//   plane 4  directory       SegmentTermEntry[termCount]
//   tail     SegmentFooter   global stats (doc count, avg doc length,
//                            BM25 params), the plane table (offset, size,
//                            CRC-32C per plane), file size, CRC, magic
//
// Every plane starts on a page boundary (mmap'd plane pointers are
// naturally aligned and a cursor reads the payload zero-copy) and is
// independently CRC-32C checksummed, so a single flipped byte anywhere is
// pinned to a plane at load time. The footer sits at the very end of the
// file.
//
// The planes are also the in-memory form of a shard: an InvertedIndex
// built from documents encodes straight into the same five planes, held in
// heap buffers, and serves views over them exactly as it serves views over
// a mapped file (SegmentPlanes is that common view). writeSegment therefore
// writes a built index's planes as they are.
//
// The reader treats the file as untrusted input: header/footer/plane-table
// validation (with overflow-safe count bounds), per-plane checksums,
// directory coverage checks, a strictly ascending docid plane, full
// per-term block-metadata validation (BlockPostingList::viewOf, which also
// bounds every doc range below the footer's docCount), and a one-shot
// decode of every block all run before the first query; any inconsistency
// throws SegmentFormatError. The decode pass proves what DAAT pruning
// relies on: prefix-summed ids land on each block's declared lastDoc, and
// every posting's frequency, document length and BM25 weight (at the
// footer's statistics) respect its block's maxTf, minDocLen and maxWeight.
// A segment that loads can never hand the query kernel an out-of-range doc
// id or a block bound that undercuts a posting it covers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "index/block_codec.hpp"

namespace resex {

class InvertedIndex;

inline constexpr std::uint64_t kSegmentMagic = 0x3147455358455352ull;  // "RSEXSEG1"
inline constexpr std::uint32_t kSegmentVersion = 1;
/// Written as 0x01020304 by a little-endian writer; a reader seeing
/// 0x04030201 is looking at a byte-swapped (big-endian) file.
inline constexpr std::uint32_t kSegmentEndianMark = 0x01020304;
inline constexpr std::uint32_t kSegmentPageBytes = 4096;

struct SegmentHeader {
  std::uint64_t magic = kSegmentMagic;
  std::uint32_t version = kSegmentVersion;
  std::uint32_t endianMark = kSegmentEndianMark;
  std::uint32_t pageBytes = kSegmentPageBytes;
  std::uint32_t crc = 0;  ///< CRC-32C of this struct with `crc` zeroed
};
static_assert(sizeof(SegmentHeader) == 24 &&
              std::is_trivially_copyable_v<SegmentHeader>);

/// One plane's entry in the footer's plane table.
struct SegmentPlane {
  std::uint64_t offset = 0;  ///< absolute file offset, page-aligned
  std::uint64_t bytes = 0;   ///< content bytes (pad past this is zero)
  std::uint32_t crc = 0;     ///< CRC-32C over exactly `bytes` bytes
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SegmentPlane) == 24);

enum SegmentPlaneId : std::uint32_t {
  kPlanePayload = 0,
  kPlaneMeta = 1,
  kPlaneDocLen = 2,
  kPlaneDocId = 3,
  kPlaneDirectory = 4,
  kSegmentPlaneCount = 5,
};

/// Name of a plane, for diagnostics ("payload", "meta", ...).
const char* segmentPlaneName(std::uint32_t plane) noexcept;

/// One term's row in the directory plane. 64-bit offsets from day one: a
/// shard's payload plane is not bounded by 4 GiB.
struct SegmentTermEntry {
  std::uint64_t payloadOffset = 0;  ///< into the payload plane
  std::uint64_t payloadBytes = 0;   ///< encoded bytes (excluding pad)
  std::uint64_t blockBegin = 0;     ///< first PostingBlockMeta index
  std::uint32_t blockCount = 0;
  std::uint32_t reserved = 0;
  std::uint64_t postingCount = 0;   ///< == the term's document frequency
};
static_assert(sizeof(SegmentTermEntry) == 40 &&
              std::is_trivially_copyable_v<SegmentTermEntry>);

struct SegmentFooter {
  std::uint32_t termCount = 0;
  std::uint32_t docCount = 0;
  std::uint64_t totalPostings = 0;
  std::uint64_t totalBlocks = 0;
  /// Statistics the lists' block bounds were built with (see
  /// BlockPostingList::boundsExactFor).
  double avgDocLength = 0.0;
  double bm25K1 = 0.0;
  double bm25B = 0.0;
  SegmentPlane planes[kSegmentPlaneCount];
  std::uint64_t fileBytes = 0;  ///< whole file, header through footer
  std::uint32_t crc = 0;        ///< CRC-32C of this struct with `crc` zeroed
  std::uint32_t version = kSegmentVersion;
  std::uint64_t magic = kSegmentMagic;
};
static_assert(sizeof(SegmentFooter) == 192 &&
              std::is_trivially_copyable_v<SegmentFooter>);

/// True when two segments hold the same shard content: equal counts, BM25
/// statistics, and per-plane sizes and CRC-32C. Plane offsets and file
/// size follow from the sizes, so two files that pass are interchangeable
/// for every query.
bool sameSegmentContent(const SegmentFooter& a, const SegmentFooter& b) noexcept;

/// Any structural problem with a segment file: bad magic/version/endian,
/// checksum mismatch, plane-table or directory inconsistency, or block
/// metadata that disagrees with the checksummed plane sizes.
class SegmentFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Views of a segment's five planes plus the statistics its block bounds
/// were built with — the one shape a shard's postings take, whether the
/// bytes live in heap buffers or in an mmap'd file. The payload span holds
/// the encoded bytes only; kPayloadPadBytes of readable slack follow it.
struct SegmentPlanes {
  std::span<const std::uint8_t> payload;
  std::span<const PostingBlockMeta> metas;
  std::span<const std::uint32_t> docLengths;
  std::span<const DocId> docIds;
  std::span<const SegmentTermEntry> directory;
  std::uint64_t totalPostings = 0;
  double avgDocLength = 0.0;
  Bm25Params params{};

  std::uint32_t termCount() const noexcept {
    return static_cast<std::uint32_t>(directory.size());
  }
  std::uint32_t docCount() const noexcept {
    return static_cast<std::uint32_t>(docLengths.size());
  }
  /// Zero-copy view of term `term`'s list (term < termCount()). The
  /// planes must already be proven — validated by MappedSegment at load,
  /// or encoded by this process — so the view is not re-validated.
  BlockPostingList postings(TermId term) const;
};

/// A segment file mapped read-only. Construction validates the entire file
/// (header, footer, plane table, per-plane CRCs, directory coverage,
/// every term's block metadata, and a decode pass over every block) and
/// throws SegmentFormatError on any
/// inconsistency; afterwards planes().postings() returns zero-copy views
/// whose cursors iterate directly over the mapped bytes. Keep the segment
/// alive as long as any view (or index built from it) is in use.
class MappedSegment {
 public:
  explicit MappedSegment(const std::string& path);
  ~MappedSegment();

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  const std::string& path() const noexcept { return path_; }
  /// The validated footer (statistics and checksummed plane table).
  const SegmentFooter& footer() const noexcept { return footer_; }
  std::uint64_t fileBytes() const noexcept { return footer_.fileBytes; }
  std::uint32_t termCount() const noexcept { return footer_.termCount; }
  std::uint32_t docCount() const noexcept { return footer_.docCount; }
  std::uint64_t totalPostings() const noexcept { return footer_.totalPostings; }
  double avgDocLength() const noexcept { return footer_.avgDocLength; }
  Bm25Params bm25Params() const noexcept {
    return {footer_.bm25K1, footer_.bm25B};
  }
  /// The mapped planes (valid while this segment lives).
  const SegmentPlanes& planes() const noexcept { return planes_; }
  std::uint64_t documentFrequency(TermId term) const {
    if (term >= footer_.termCount)
      throw std::out_of_range(
          "MappedSegment::documentFrequency: term out of range");
    return planes_.directory[term].postingCount;
  }

  /// Advises the kernel to drop this segment's pages (madvise on the
  /// mapping plus posix_fadvise(POSIX_FADV_DONTNEED) on the file). Called
  /// on a departed source replica after in-flight queries drain, so the
  /// dropped copy's memory actually returns to the system instead of
  /// lingering warm until unmap. Best-effort; never throws.
  void dropPageCache() const noexcept;

 private:
  const std::uint8_t* base() const noexcept {
    return static_cast<const std::uint8_t*>(map_);
  }
  [[noreturn]] void reject(const std::string& what) const;
  void validate();
  /// Term `term`'s list, validated by BlockPostingList::viewOf.
  BlockPostingList validatedPostings(TermId term) const;

  std::string path_;
  void* map_ = nullptr;
  std::size_t mapBytes_ = 0;
  SegmentFooter footer_;
  SegmentPlanes planes_;
};

/// Writes `index` to `path` as a segment file — header page, the index's
/// five planes as they are (each page-aligned and checksummed), footer —
/// then fsyncs the file and its directory. Returns the file size.
std::uint64_t writeSegment(const InvertedIndex& index, const std::string& path);

}  // namespace resex
