#include "index/block_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "index/simd_unpack.hpp"
#include "index/varbyte.hpp"

namespace resex {
namespace {

unsigned bitsFor(std::uint32_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// ORs `bits` (<= 32) of `value` in at bit position `bitPos` of `out`. The
/// 64-bit store may touch up to 7 bytes past the value; those bytes are
/// zero (or already-packed bits, which OR-ing zeros leaves intact).
void putBits(std::uint8_t* out, std::size_t& bitPos, std::uint64_t value,
             unsigned bits) {
  if (bits == 0) return;
  std::uint8_t* at = out + (bitPos >> 3);
  std::uint64_t word;
  std::memcpy(&word, at, sizeof(word));
  word |= value << (bitPos & 7);
  std::memcpy(at, &word, sizeof(word));
  bitPos += bits;
}

/// Exact byte size of a full bit-packed block's payload.
std::size_t packedBlockBytes(std::uint32_t count, unsigned docBits,
                             unsigned freqBits) {
  const std::size_t bits = static_cast<std::size_t>(count - 1) * docBits +
                           static_cast<std::size_t>(count) * freqBits;
  return (bits + 7) / 8;
}

[[noreturn]] void rejectView(std::size_t block, const char* what) {
  throw std::invalid_argument("BlockPostingList::viewOf: block " +
                              std::to_string(block) + ": " + what);
}

}  // namespace

double bm25LengthNorm(std::uint32_t docLength, double avgDocLength,
                      const Bm25Params& params) {
  return params.k1 *
         (1.0 - params.b + params.b * docLength / std::max(1.0, avgDocLength));
}

double postingWeight(std::uint32_t tf, double lengthNorm,
                     const Bm25Params& params) {
  return (tf * (params.k1 + 1.0)) / (tf + lengthNorm);
}

std::size_t planPostingBlocks(std::span<const DocId> docs,
                              std::span<const std::uint32_t> freqs,
                              std::span<const std::uint32_t> docLengths,
                              double avgDocLength, const Bm25Params& params,
                              std::span<PostingBlockMeta> blocks) {
  if (docs.size() != freqs.size())
    throw std::invalid_argument("BlockPostingList: docs/freqs size mismatch");
  if (blocks.size() != postingBlockCount(docs.size()))
    throw std::invalid_argument("BlockPostingList: block count mismatch");
  std::size_t payloadBytes = 0;
  for (std::size_t begin = 0, b = 0; begin < docs.size();
       begin += kPostingBlockSize, ++b) {
    const std::size_t end = std::min(begin + kPostingBlockSize, docs.size());
    PostingBlockMeta meta;
    meta.firstDoc = docs[begin];
    meta.lastDoc = docs[end - 1];
    meta.count = static_cast<std::uint16_t>(end - begin);
    meta.dataOffset = payloadBytes;
    meta.minDocLen = ~std::uint32_t{0};
    std::uint32_t maxDelta = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (freqs[i] == 0)
        throw std::invalid_argument("BlockPostingList: zero term frequency");
      if (i > begin) {
        if (docs[i] <= docs[i - 1])
          throw std::invalid_argument("BlockPostingList: doc ids not increasing");
        maxDelta = std::max(maxDelta, docs[i] - docs[i - 1] - 1);
      }
      meta.maxTf = std::max(meta.maxTf, freqs[i]);
      const std::uint32_t len =
          docs[i] < docLengths.size() ? docLengths[docs[i]] : 1;
      meta.minDocLen = std::min(meta.minDocLen, len);
      meta.maxWeight = std::max(
          meta.maxWeight,
          postingWeight(freqs[i], bm25LengthNorm(len, avgDocLength, params),
                        params));
    }
    if (begin > 0 && docs[begin] <= docs[begin - 1])
      throw std::invalid_argument("BlockPostingList: doc ids not increasing");

    if (meta.count == kPostingBlockSize) {
      // Full block: fixed-width bit packing. Deltas store (gap-1) — a
      // width of 0 encodes consecutive ids in no bits at all; frequencies
      // store (freq-1) the same way.
      meta.docBits = static_cast<std::uint8_t>(bitsFor(maxDelta));
      meta.freqBits = static_cast<std::uint8_t>(bitsFor(meta.maxTf - 1));
      payloadBytes += packedBlockBytes(meta.count, meta.docBits, meta.freqBits);
    } else {
      // Partial tail block: VByte, same (gap-1)/(freq-1) normalization.
      meta.docBits = kVbyteTailBits;
      for (std::size_t i = begin + 1; i < end; ++i)
        payloadBytes += varbyteSize(docs[i] - docs[i - 1] - 1);
      for (std::size_t i = begin; i < end; ++i)
        payloadBytes += varbyteSize(freqs[i] - 1);
    }
    blocks[b] = meta;
  }
  return payloadBytes;
}

void packPostingBlocks(std::span<const DocId> docs,
                       std::span<const std::uint32_t> freqs,
                       std::span<const PostingBlockMeta> blocks,
                       std::uint8_t* payload) {
  std::size_t begin = 0;
  for (const PostingBlockMeta& meta : blocks) {
    const std::size_t end = begin + meta.count;
    if (end > docs.size() || end > freqs.size())
      throw std::invalid_argument("BlockPostingList: blocks exceed the postings");
    std::uint8_t* out = payload + meta.dataOffset;
    if (meta.docBits == kVbyteTailBits) {
      for (std::size_t i = begin + 1; i < end; ++i)
        out = varbyteEncode(docs[i] - docs[i - 1] - 1, out);
      for (std::size_t i = begin; i < end; ++i)
        out = varbyteEncode(freqs[i] - 1, out);
    } else {
      std::size_t bitPos = 0;
      for (std::size_t i = begin + 1; i < end; ++i)
        putBits(out, bitPos, docs[i] - docs[i - 1] - 1, meta.docBits);
      for (std::size_t i = begin; i < end; ++i)
        putBits(out, bitPos, freqs[i] - 1, meta.freqBits);
    }
    begin = end;
  }
}

BlockPostingList BlockPostingList::viewOf(
    std::span<const PostingBlockMeta> blocks, const std::uint8_t* payload,
    std::size_t payloadBytes, std::size_t postingCount, std::uint32_t docCount) {
  // The planes are untrusted bytes (an mmap'd file): prove every invariant
  // the decode paths rely on before handing out a cursor-able view. Blocks
  // must tile the posting count, doc ranges must be strictly increasing
  // across blocks and stay below docCount (executors index doc-length and
  // accumulator arrays of that size by decoded id), and each block's
  // payload extent must match its declared widths byte-for-byte — a block
  // whose metadata disagrees with the checksummed plane sizes is
  // corruption (or a crafted file), never UB.
  std::size_t postings = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const PostingBlockMeta& meta = blocks[b];
    const bool last = b + 1 == blocks.size();
    if (meta.count == 0 || meta.count > kPostingBlockSize)
      rejectView(b, "posting count out of range");
    if (meta.docBits == kVbyteTailBits) {
      if (!last) rejectView(b, "VByte tail block before the final block");
      if (meta.count == kPostingBlockSize)
        rejectView(b, "full block encoded as VByte tail");
    } else {
      if (meta.count != kPostingBlockSize)
        rejectView(b, "partial block not encoded as VByte tail");
      if (meta.docBits > 32) rejectView(b, "doc bit width out of range");
    }
    if (meta.freqBits > 32) rejectView(b, "freq bit width out of range");
    if (meta.firstDoc > meta.lastDoc) rejectView(b, "doc range inverted");
    if (meta.lastDoc >= docCount)
      rejectView(b, "doc range past the document count");
    if (meta.count == 1 && meta.firstDoc != meta.lastDoc)
      rejectView(b, "single-posting block with a doc range");
    if (meta.count > 1 &&
        static_cast<std::uint64_t>(meta.lastDoc) - meta.firstDoc <
            static_cast<std::uint64_t>(meta.count) - 1)
      rejectView(b, "doc range narrower than the posting count");
    if (b > 0 && meta.firstDoc <= blocks[b - 1].lastDoc)
      rejectView(b, "doc range overlaps the previous block");
    if (meta.maxTf == 0) rejectView(b, "zero max term frequency");
    if (meta.minDocLen == 0) rejectView(b, "zero min document length");
    if (!std::isfinite(meta.maxWeight) || meta.maxWeight < 0.0)
      rejectView(b, "non-finite block score bound");

    if (b == 0) {
      if (meta.dataOffset != 0) rejectView(b, "first block offset not zero");
    } else if (meta.dataOffset < blocks[b - 1].dataOffset) {
      rejectView(b, "payload offsets not monotone");
    }
    if (meta.dataOffset > payloadBytes)
      rejectView(b, "payload offset past the plane");
    const std::uint64_t nextOffset =
        last ? payloadBytes : blocks[b + 1].dataOffset;
    if (nextOffset > payloadBytes)
      rejectView(b, "payload extent past the plane");
    const std::uint64_t extent = nextOffset - meta.dataOffset;
    if (meta.docBits == kVbyteTailBits) {
      // (count-1) deltas + count freqs, one VByte group minimum each.
      if (extent < 2ull * meta.count - 1)
        rejectView(b, "VByte tail shorter than its posting count");
    } else {
      if (extent != packedBlockBytes(meta.count, meta.docBits, meta.freqBits))
        rejectView(b, "payload extent disagrees with the declared widths");
    }
    postings += meta.count;
  }
  if (postings != postingCount)
    throw std::invalid_argument(
        "BlockPostingList::viewOf: block counts sum to " +
        std::to_string(postings) + ", directory declares " +
        std::to_string(postingCount));
  if (blocks.empty() && payloadBytes != 0)
    throw std::invalid_argument(
        "BlockPostingList::viewOf: payload bytes without blocks");

  return overValidated(blocks, payload, payloadBytes, postingCount);
}

BlockPostingList BlockPostingList::overValidated(
    std::span<const PostingBlockMeta> blocks, const std::uint8_t* payload,
    std::size_t payloadBytes, std::size_t postingCount) noexcept {
  BlockPostingList list;
  list.data_ = payload;
  list.blocks_ = blocks.data();
  list.blockCount_ = blocks.size();
  list.payloadBytes_ = payloadBytes;
  list.count_ = postingCount;
  return list;
}

std::uint32_t BlockPostingList::decodeBlock(std::size_t b, DocId* docs,
                                            std::uint32_t* freqs) const {
  const PostingBlockMeta& meta = blocks_[b];
  const std::uint32_t count = meta.count;
  docs[0] = meta.firstDoc;
  // Both paths prefix-sum in 64 bits and require the walk to land exactly
  // on the block's declared (validated) lastDoc: corrupt or hostile delta
  // bytes cannot wrap the id space or yield an id outside the range the
  // metadata promised — they throw instead.
  if (meta.docBits == kVbyteTailBits) {
    // The tail decodes against the declared payload end: truncated or
    // overrunning VByte streams throw instead of reading a neighbour's
    // bytes (the payload pointer may cover a whole mapped plane).
    std::size_t offset = meta.dataOffset;
    std::uint64_t acc = meta.firstDoc;
    for (std::uint32_t i = 1; i < count; ++i) {
      const std::uint64_t gap = varbyteDecode(data_, payloadBytes_, offset);
      // acc + gap + 1 must stay <= lastDoc (acc <= lastDoc inductively).
      if (gap >= meta.lastDoc - acc)
        throw std::invalid_argument(
            "BlockPostingList: doc ids overrun the block's declared lastDoc");
      acc += gap + 1;
      docs[i] = static_cast<DocId>(acc);
    }
    if (acc != meta.lastDoc)
      throw std::invalid_argument(
          "BlockPostingList: doc ids fall short of the block's declared lastDoc");
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t f = varbyteDecode(data_, payloadBytes_, offset);
      if (f > 0xFFFFFFFEull)
        throw std::invalid_argument(
            "BlockPostingList: term frequency overflows 32 bits");
      freqs[i] = static_cast<std::uint32_t>(f) + 1;
    }
    return count;
  }
  const std::uint8_t* base = data_ + meta.dataOffset;
  const unsigned docBits = meta.docBits;
  std::uint64_t acc = meta.firstDoc;
  if (docBits == 0) {
    for (std::uint32_t i = 1; i < count; ++i)
      docs[i] = static_cast<DocId>(++acc);
  } else {
    // Unpack the (gap-1) plane with the dispatched kernel, then prefix-sum
    // the deltas in place (the sum is serial; the unpack is the hot part).
    // Deltas are <= 2^32-1 and count <= 128, so the 64-bit sum cannot wrap.
    unpackBits(base, 0, count - 1, docBits, docs + 1);
    for (std::uint32_t i = 1; i < count; ++i) {
      acc += static_cast<std::uint64_t>(docs[i]) + 1;
      docs[i] = static_cast<DocId>(acc);
    }
  }
  if (acc != meta.lastDoc)
    throw std::invalid_argument(
        "BlockPostingList: decoded doc ids disagree with the block's "
        "declared lastDoc");
  const unsigned freqBits = meta.freqBits;
  if (freqBits == 0) {
    for (std::uint32_t i = 0; i < count; ++i) freqs[i] = 1;
  } else {
    unpackBits(base, static_cast<std::size_t>(count - 1) * docBits, count,
               freqBits, freqs);
    for (std::uint32_t i = 0; i < count; ++i) ++freqs[i];
  }
  return count;
}

void BlockPostingList::decode(std::vector<DocId>& docs,
                              std::vector<std::uint32_t>& freqs) const {
  docs.resize(count_);
  freqs.resize(count_);
  std::size_t written = 0;
  for (std::size_t b = 0; b < blockCount_; ++b)
    written += decodeBlock(b, docs.data() + written, freqs.data() + written);
  if (written != count_)
    throw std::logic_error("BlockPostingList: decode count mismatch");
}

}  // namespace resex
