#include "index/block_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "index/encoded_list.hpp"
#include "index/varbyte.hpp"
#include "util/rng.hpp"

namespace resex {
namespace {

struct Postings {
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
};

/// Random strictly-increasing postings. gapBound 1 yields consecutive ids
/// (the 0-bit doc width); freqBound 1 yields all-ones frequencies.
Postings randomPostings(Rng& rng, std::size_t length, std::uint32_t gapBound,
                        std::uint32_t freqBound) {
  Postings p;
  DocId doc = static_cast<DocId>(rng.below(50));
  for (std::size_t i = 0; i < length; ++i) {
    if (i > 0) doc += 1 + static_cast<DocId>(rng.below(gapBound));
    p.docs.push_back(doc);
    p.freqs.push_back(1 + static_cast<std::uint32_t>(rng.below(freqBound)));
  }
  return p;
}

TEST(BlockCodec, RoundtripFuzzMatchesVbyteReference) {
  Rng rng(71);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t length = rng.below(600);
    const auto gapBound = static_cast<std::uint32_t>(1 + rng.below(5000));
    const auto freqBound = static_cast<std::uint32_t>(1 + rng.below(300));
    const Postings p = randomPostings(rng, length, gapBound, freqBound);
    const EncodedList encoded(p.docs, p.freqs);
    const BlockPostingList& list = encoded.list;
    ASSERT_EQ(list.documentCount(), length);

    std::vector<DocId> docs;
    std::vector<std::uint32_t> freqs;
    list.decode(docs, freqs);
    EXPECT_EQ(docs, p.docs) << "trial " << trial;
    EXPECT_EQ(freqs, p.freqs) << "trial " << trial;

    // Cross-check the doc-id sequence against the seed VByte codec the
    // block format replaced: both must reproduce the input exactly.
    EXPECT_EQ(decodeMonotone(encodeMonotone(p.docs)), p.docs) << "trial " << trial;
  }
}

TEST(BlockCodec, BlockMetadataInvariants) {
  Rng rng(72);
  const Postings p = randomPostings(rng, 1000, 40, 25);
  const EncodedList encoded(p.docs, p.freqs);
  const BlockPostingList& list = encoded.list;
  ASSERT_EQ(list.blockCount(),
            (p.docs.size() + kPostingBlockSize - 1) / kPostingBlockSize);
  std::size_t covered = 0;
  for (std::size_t b = 0; b < list.blockCount(); ++b) {
    const PostingBlockMeta& meta = list.block(b);
    const std::size_t begin = covered;
    const std::size_t end = begin + meta.count;
    ASSERT_LE(end, p.docs.size());
    EXPECT_EQ(meta.firstDoc, p.docs[begin]) << "block " << b;
    EXPECT_EQ(meta.lastDoc, p.docs[end - 1]) << "block " << b;
    std::uint32_t maxTf = 0;
    for (std::size_t i = begin; i < end; ++i) maxTf = std::max(maxTf, p.freqs[i]);
    EXPECT_EQ(meta.maxTf, maxTf) << "block " << b;
    // Full blocks bit-pack; only the final partial block may use VByte.
    if (meta.count == kPostingBlockSize)
      EXPECT_NE(meta.docBits, kVbyteTailBits) << "block " << b;
    else
      EXPECT_EQ(b, list.blockCount() - 1) << "partial block not last";
    covered = end;
  }
  EXPECT_EQ(covered, p.docs.size());
}

TEST(BlockCodec, ZeroBitWidthsEncodeDenseRuns) {
  // Consecutive ids with frequency 1 everywhere: both widths collapse to
  // zero bits, so a full block's payload is empty.
  std::vector<DocId> docs(kPostingBlockSize);
  std::vector<std::uint32_t> freqs(kPostingBlockSize, 1);
  for (std::uint32_t i = 0; i < kPostingBlockSize; ++i) docs[i] = 100 + i;
  const EncodedList encoded(docs, freqs);
  const BlockPostingList& list = encoded.list;
  ASSERT_EQ(list.blockCount(), 1u);
  EXPECT_EQ(list.block(0).docBits, 0);
  EXPECT_EQ(list.block(0).freqBits, 0);
  std::vector<DocId> outDocs;
  std::vector<std::uint32_t> outFreqs;
  list.decode(outDocs, outFreqs);
  EXPECT_EQ(outDocs, docs);
  EXPECT_EQ(outFreqs, freqs);
}

TEST(BlockCodec, VbyteTailBlock) {
  Rng rng(73);
  const Postings p = randomPostings(rng, kPostingBlockSize + 2, 1000, 50);
  const EncodedList encoded(p.docs, p.freqs);
  const BlockPostingList& list = encoded.list;
  ASSERT_EQ(list.blockCount(), 2u);
  EXPECT_NE(list.block(0).docBits, kVbyteTailBits);
  EXPECT_EQ(list.block(1).docBits, kVbyteTailBits);
  EXPECT_EQ(list.block(1).count, 2u);
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
  list.decode(docs, freqs);
  EXPECT_EQ(docs, p.docs);
  EXPECT_EQ(freqs, p.freqs);
}

TEST(BlockCodec, BlockBoundsDominateEveryPosting) {
  Rng rng(74);
  const Postings p = randomPostings(rng, 700, 8, 20);
  // Document lengths indexed by (dense) doc id.
  std::vector<std::uint32_t> docLengths(p.docs.back() + 1, 1);
  double total = 0.0;
  for (auto& len : docLengths) {
    len = 1 + static_cast<std::uint32_t>(rng.below(200));
    total += len;
  }
  const double avgLen = total / static_cast<double>(docLengths.size());
  const Bm25Params params;
  const EncodedList encoded(p.docs, p.freqs, docLengths, avgLen, params);
  const BlockPostingList& list = encoded.list;
  const double idf = 1.7;  // any positive idf scales both sides equally
  std::size_t covered = 0;
  for (std::size_t b = 0; b < list.blockCount(); ++b) {
    const PostingBlockMeta& meta = list.block(b);
    for (std::size_t i = covered; i < covered + meta.count; ++i) {
      const double score = bm25TermScore(idf, p.freqs[i], docLengths[p.docs[i]],
                                         avgLen, params);
      // Precomputed bound: exact max under the build statistics.
      EXPECT_GE(idf * meta.maxWeight, score) << "block " << b << " posting " << i;
      // Recomputed bound: valid under *any* statistics (here: a different
      // avgdl, as when a shard scores with global stats).
      const double otherAvg = avgLen * 1.7;
      EXPECT_GE(bm25TermScore(idf, meta.maxTf, meta.minDocLen, otherAvg, params),
                bm25TermScore(idf, p.freqs[i], docLengths[p.docs[i]], otherAvg,
                              params))
          << "block " << b << " posting " << i;
    }
    covered += meta.count;
  }
}

TEST(BlockCodec, EmptyListBehaves) {
  const EncodedList encoded(std::vector<DocId>{}, std::vector<std::uint32_t>{});
  const BlockPostingList& list = encoded.list;
  EXPECT_EQ(list.documentCount(), 0u);
  EXPECT_EQ(list.blockCount(), 0u);
  std::vector<DocId> docs{1, 2, 3};
  std::vector<std::uint32_t> freqs{1};
  list.decode(docs, freqs);
  EXPECT_TRUE(docs.empty());
  EXPECT_TRUE(freqs.empty());
}

TEST(BlockCodec, RejectsInvalidInput) {
  EXPECT_THROW(EncodedList({3, 3}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(EncodedList({5, 4}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(EncodedList({1, 2}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(EncodedList({1, 2}, {1}), std::invalid_argument);
}

TEST(BlockCodec, TruncatedVbyteInputThrowsEverywhere) {
  // Every proper prefix of a valid VByte stream must throw, not read out
  // of bounds — the tail-block decoder leans on this.
  Rng rng(75);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint8_t> bytes;
    const int values = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < values; ++i)
      varbyteEncode(rng() >> rng.below(40), bytes);
    // Chop the final value at every partial length.
    std::size_t lastStart = 0;
    {
      std::size_t offset = 0;
      for (int i = 0; i < values; ++i) {
        lastStart = offset;
        varbyteDecode(bytes, offset);
      }
    }
    for (std::size_t cut = lastStart; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> truncated(bytes.begin(),
                                          bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      std::size_t offset = 0;
      for (int i = 0; i + 1 < values; ++i) varbyteDecode(truncated, offset);
      EXPECT_THROW(varbyteDecode(truncated, offset), std::out_of_range)
          << "trial " << trial << " cut " << cut;
    }
  }
  // A run of continuation bytes (terminator bit clear) exceeding 64 bits.
  const std::vector<std::uint8_t> overflow(11, 0x01);
  std::size_t offset = 0;
  EXPECT_THROW(varbyteDecode(overflow, offset), std::out_of_range);
}

}  // namespace
}  // namespace resex
