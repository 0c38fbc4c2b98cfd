// Block-based posting-list codec: the storage format of the query kernel.
//
// Postings are cut into 128-entry blocks. Full blocks store doc-id deltas
// and frequencies bit-packed at a fixed width chosen per block (the widest
// value decides), which decodes with word-at-a-time shifts — or, when the
// host supports it, SIMD gathers (see simd_unpack.hpp) — instead of the
// per-byte branches of VByte; the final partial block falls back to VByte.
// Every block carries metadata the executor can act on *without decoding
// the block*: first/last doc id (cursor positioning and block skipping),
// max term frequency + min document length (an always-valid BM25 bound),
// and the precomputed maximum BM25 contribution under the index's own
// statistics (the tight bound used when a query scores with local stats).
// This subsumes the former standalone BlockMaxIndex: block-max metadata is
// now an intrinsic part of the posting list.
//
// A list is always a zero-copy *view* over externally owned planes: the
// payload and meta planes of a segment, whether they sit in heap buffers
// (an index built in memory) or in an mmap'd file (see segment.hpp).
// Encoding is two passes over a list's postings — planPostingBlocks()
// computes every block's metadata and the exact payload size, then
// packPostingBlocks() writes the bytes into a buffer sized up front — so a
// shard's lists share one payload buffer and one meta buffer. Views are
// constructed through viewOf(), which treats the metadata as untrusted
// input and validates every block invariant against the actual payload
// extent before a single byte is decoded; the decode paths themselves
// never read past the declared payload (the VByte tail is bounds-checked,
// and bit-packed extents are proven exact at validation time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "index/scoring.hpp"

namespace resex {

/// Entries per full block. A power of two keeps block arithmetic cheap;
/// 128 matches the granularity used by SIMD posting codecs and keeps the
/// per-block metadata overhead under 3 bits/posting for long lists.
inline constexpr std::uint32_t kPostingBlockSize = 128;

/// docBits sentinel marking a VByte-encoded tail block.
inline constexpr std::uint8_t kVbyteTailBits = 0xFF;

/// Readable slack bytes every payload must carry past its encoded bytes:
/// the unpack kernels (scalar and SIMD alike) issue unaligned 64-bit loads
/// anchored at a value's first byte (and the packer stores 64-bit words the
/// same way). Payload planes carry this pad past their final list.
inline constexpr std::size_t kPayloadPadBytes = 8;

/// Per-block metadata. This exact layout is also the segment file's
/// on-disk record (little-endian, 64-bit payload offsets from day one), so
/// an mmap'd meta plane is iterated in place — the static_asserts below
/// pin the ABI the format depends on.
struct PostingBlockMeta {
  DocId firstDoc = 0;             // dense id of the block's first posting
  DocId lastDoc = 0;              // dense id of the block's final posting
  std::uint64_t dataOffset = 0;   // byte offset of the block's payload
  std::uint32_t maxTf = 0;        // max term frequency within the block
  std::uint32_t minDocLen = 1;    // min document length within the block
  std::uint16_t count = 0;        // postings in the block (<= kPostingBlockSize)
  std::uint8_t docBits = 0;       // bit width of (delta-1), or kVbyteTailBits
  std::uint8_t freqBits = 0;      // bit width of (freq-1)
  std::uint8_t reserved[4] = {0, 0, 0, 0};
  /// Max of tf*(k1+1)/(tf+norm(len)) over the block's postings, at the
  /// statistics the list was built with. Multiply by a query idf to get a
  /// tight per-block score bound; only valid when the query scores with
  /// the same avgDocLength and Bm25Params (see boundsExactFor()).
  double maxWeight = 0.0;
};

static_assert(sizeof(PostingBlockMeta) == 40,
              "PostingBlockMeta is an on-disk record; its size is part of "
              "the segment format");
static_assert(std::is_trivially_copyable_v<PostingBlockMeta> &&
                  std::is_standard_layout_v<PostingBlockMeta>,
              "PostingBlockMeta must be mmap-able in place");
static_assert(offsetof(PostingBlockMeta, dataOffset) == 8 &&
                  offsetof(PostingBlockMeta, count) == 24 &&
                  offsetof(PostingBlockMeta, maxWeight) == 32,
              "PostingBlockMeta field offsets are part of the segment format");

/// Blocks a list of `postings` entries is cut into.
constexpr std::size_t postingBlockCount(std::size_t postings) noexcept {
  return (postings + kPostingBlockSize - 1) / kPostingBlockSize;
}

/// BM25 length normalisation k1*(1-b+b*len/avgdl) of one document.
double bm25LengthNorm(std::uint32_t docLength, double avgDocLength,
                      const Bm25Params& params);

/// tf*(k1+1)/(tf+lengthNorm): one posting's BM25 weight before idf — the
/// quantity PostingBlockMeta::maxWeight bounds. Block planning and segment
/// validation both call these two definitions, so a bound proven at load
/// is checked against the very values the encoder computed.
double postingWeight(std::uint32_t tf, double lengthNorm,
                     const Bm25Params& params);

/// Encoding pass 1: fills `blocks` (exactly postingBlockCount(docs.size())
/// entries) with one list's block metadata — doc range, widths, score
/// bounds, and payload offsets relative to the list's first byte — and
/// returns the list's encoded payload bytes. `docs` are strictly
/// increasing dense ids; `freqs` parallel (freqs[i] >= 1); throws
/// std::invalid_argument otherwise. `docLengths` (indexed by dense id) and
/// `avgDocLength` feed the per-block score bounds; ids past its end count
/// as length 1, which stays a valid (looser) upper bound.
std::size_t planPostingBlocks(std::span<const DocId> docs,
                              std::span<const std::uint32_t> freqs,
                              std::span<const std::uint32_t> docLengths,
                              double avgDocLength, const Bm25Params& params,
                              std::span<PostingBlockMeta> blocks);

/// Encoding pass 2: writes the payload `blocks` (from planPostingBlocks on
/// the same postings) describe to `payload`, which must be zero-filled and
/// hold the planned bytes plus kPayloadPadBytes of writable slack.
void packPostingBlocks(std::span<const DocId> docs,
                       std::span<const std::uint32_t> freqs,
                       std::span<const PostingBlockMeta> blocks,
                       std::uint8_t* payload);

/// One term's block-compressed posting list: a view over payload and meta
/// planes owned elsewhere. Copies are cheap and alias the same planes.
class BlockPostingList {
 public:
  BlockPostingList() = default;

  /// Zero-copy view over externally owned (typically mmap'd) planes. The
  /// metadata is untrusted: every block invariant — counts, widths,
  /// monotone doc ranges bounded by `docCount` (every dense id the view
  /// can ever yield is < docCount), and byte-exact payload extents — is
  /// validated against `payloadBytes` before the view is returned; throws
  /// std::invalid_argument on any inconsistency. The caller must keep the
  /// planes alive for the view's lifetime and guarantee kPayloadPadBytes
  /// of readable slack past `payload + payloadBytes`.
  static BlockPostingList viewOf(std::span<const PostingBlockMeta> blocks,
                                 const std::uint8_t* payload,
                                 std::size_t payloadBytes,
                                 std::size_t postingCount,
                                 std::uint32_t docCount,
                                 double builtAvgDocLength,
                                 const Bm25Params& builtParams);

  /// The same view without validation, for planes already proven: a
  /// segment that viewOf validated at load, or planes this process
  /// encoded with planPostingBlocks/packPostingBlocks.
  static BlockPostingList overValidated(std::span<const PostingBlockMeta> blocks,
                                        const std::uint8_t* payload,
                                        std::size_t payloadBytes,
                                        std::size_t postingCount,
                                        double builtAvgDocLength,
                                        const Bm25Params& builtParams) noexcept;

  std::size_t documentCount() const noexcept { return count_; }
  std::size_t blockCount() const noexcept { return blockCount_; }
  const PostingBlockMeta& block(std::size_t b) const { return blocks_[b]; }
  std::span<const PostingBlockMeta> blocks() const noexcept {
    return {blocks_, blockCount_};
  }
  /// Encoded payload bytes (excluding the read pad).
  std::span<const std::uint8_t> payload() const noexcept {
    return {data_, payloadBytes_};
  }

  /// Decodes one block into caller buffers (capacity >= kPostingBlockSize
  /// each). Returns the number of postings written. The decoded ids are
  /// prefix-summed with 64-bit accumulation and must land exactly on the
  /// block's declared lastDoc — corrupt bytes whose deltas disagree with
  /// the metadata throw std::invalid_argument instead of yielding ids
  /// outside [firstDoc, lastDoc].
  std::uint32_t decodeBlock(std::size_t b, DocId* docs,
                            std::uint32_t* freqs) const;

  /// Decompresses the full list (ids + frequencies).
  void decode(std::vector<DocId>& docs, std::vector<std::uint32_t>& freqs) const;

  /// Compressed payload plus per-block metadata bytes.
  std::size_t byteSize() const noexcept {
    return payloadBytes_ + blockCount_ * sizeof(PostingBlockMeta);
  }

  /// True when the precomputed per-block maxWeight is an exact bound for
  /// queries scoring with these statistics.
  bool boundsExactFor(double avgDocLength, const Bm25Params& params) const noexcept {
    return avgDocLength == builtAvgDocLength_ && params.k1 == builtK1_ &&
           params.b == builtB_;
  }

  double builtAvgDocLength() const noexcept { return builtAvgDocLength_; }
  Bm25Params builtParams() const noexcept { return {builtK1_, builtB_}; }

 private:
  const std::uint8_t* data_ = nullptr;
  const PostingBlockMeta* blocks_ = nullptr;
  std::size_t blockCount_ = 0;
  std::size_t payloadBytes_ = 0;  // encoded bytes, excluding pad
  std::size_t count_ = 0;
  double builtAvgDocLength_ = 0.0;
  double builtK1_ = 0.0;
  double builtB_ = 0.0;
};

}  // namespace resex
