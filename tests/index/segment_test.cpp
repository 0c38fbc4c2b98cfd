#include "index/segment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "index/inverted_index.hpp"
#include "index/partition.hpp"
#include "index/query_exec.hpp"
#include "util/checksum.hpp"

namespace resex {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

InvertedIndex buildIndex(std::uint64_t seed = 11, std::uint32_t docCount = 600,
                         std::uint32_t termCount = 300) {
  SyntheticDocConfig config;
  config.seed = seed;
  config.docCount = docCount;
  config.termCount = termCount;
  return InvertedIndex(termCount, generateDocuments(config));
}

SegmentFooter footerOf(const std::vector<std::uint8_t>& bytes) {
  SegmentFooter footer;
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof footer,
              sizeof footer);
  return footer;
}

template <typename T>
T readAt(const std::vector<std::uint8_t>& bytes, std::uint64_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof value);
  return value;
}

template <typename T>
void writeAt(std::vector<std::uint8_t>& bytes, std::uint64_t offset,
             const T& value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
}

/// Re-checksums one plane and the footer after a hostile mutation, so only
/// the semantic validation (not the CRCs) can reject the file.
void recrcPlaneAndFooter(std::vector<std::uint8_t>& bytes, std::uint32_t plane) {
  SegmentFooter footer = footerOf(bytes);
  const SegmentPlane& p = footer.planes[plane];
  footer.planes[plane].crc = crc32c(bytes.data() + p.offset, p.bytes);
  footer.crc = 0;
  footer.crc = crc32c(&footer, sizeof footer);
  std::memcpy(bytes.data() + bytes.size() - sizeof footer, &footer,
              sizeof footer);
}

// ---- CRC-32C ----------------------------------------------------------

TEST(Crc32c, MatchesKnownVector) {
  // RFC 3720 test vector: 32 zero bytes.
  const std::uint8_t zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32cSoftware(zeros, sizeof zeros), 0x8A9136AAu);
}

TEST(Crc32c, HardwareMatchesSoftwareOracle) {
  std::mt19937_64 rng(3);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 63u, 1000u, 4097u}) {
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(crc32c(data.data(), size), crc32cSoftware(data.data(), size))
        << "size=" << size;
  }
}

TEST(Crc32c, ChainsAcrossSplits) {
  std::vector<std::uint8_t> data(257);
  std::mt19937_64 rng(4);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (const std::size_t split : {0u, 1u, 128u, 256u, 257u}) {
    const std::uint32_t first = crc32c(data.data(), split);
    EXPECT_EQ(crc32c(data.data() + split, data.size() - split, first), whole)
        << "split=" << split;
  }
}

// ---- Round trip -------------------------------------------------------

TEST(Segment, RoundTripPreservesIndexExactly) {
  const InvertedIndex built = buildIndex();
  const std::string path = tempPath("roundtrip.seg");
  const std::uint64_t fileBytes = writeSegment(built, path);
  EXPECT_EQ(fileBytes, fs::file_size(path));

  const auto segment = std::make_shared<const MappedSegment>(path);
  EXPECT_EQ(segment->termCount(), built.termCount());
  EXPECT_EQ(segment->docCount(), built.documentCount());
  EXPECT_EQ(segment->totalPostings(), built.totalPostings());
  EXPECT_EQ(segment->avgDocLength(), built.averageDocLength());
  EXPECT_EQ(segment->bm25Params().k1, built.builtParams().k1);
  EXPECT_EQ(segment->bm25Params().b, built.builtParams().b);

  const InvertedIndex loaded(segment);
  ASSERT_EQ(loaded.termCount(), built.termCount());
  ASSERT_EQ(loaded.documentCount(), built.documentCount());
  for (std::size_t d = 0; d < built.documentCount(); ++d) {
    ASSERT_EQ(loaded.docLength(d), built.docLength(d));
    ASSERT_EQ(loaded.docId(d), built.docId(d));
  }
  std::vector<DocId> docsA, docsB;
  std::vector<std::uint32_t> freqsA, freqsB;
  for (TermId t = 0; t < built.termCount(); ++t) {
    ASSERT_EQ(segment->documentFrequency(t), built.documentFrequency(t));
    built.postings(t).decode(docsA, freqsA);
    loaded.postings(t).decode(docsB, freqsB);
    ASSERT_EQ(docsA, docsB) << "term " << t;
    ASSERT_EQ(freqsA, freqsB) << "term " << t;
    // The per-block score-bound metadata must survive byte-for-byte.
    const auto blocksA = built.postings(t).blocks();
    const auto blocksB = loaded.postings(t).blocks();
    ASSERT_EQ(blocksA.size(), blocksB.size());
    ASSERT_EQ(std::memcmp(blocksA.data(), blocksB.data(),
                          blocksA.size() * sizeof(PostingBlockMeta)),
              0)
        << "term " << t;
  }
}

TEST(Segment, RoundTripServesBitIdenticalQueries) {
  const InvertedIndex built = buildIndex(23, 900, 400);
  const std::string path = tempPath("queries.seg");
  writeSegment(built, path);
  const InvertedIndex loaded(std::make_shared<const MappedSegment>(path));

  std::mt19937_64 rng(99);
  for (int q = 0; q < 200; ++q) {
    std::vector<TermId> terms;
    const std::size_t len = 1 + rng() % 4;
    for (std::size_t i = 0; i < len; ++i)
      terms.push_back(static_cast<TermId>(rng() % built.termCount()));
    const auto a = topKDisjunctive(built, terms, 10, {}, nullptr, nullptr);
    const auto b = topKDisjunctive(loaded, terms, 10, {}, nullptr, nullptr);
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].doc, b[i].doc) << "query " << q << " rank " << i;
      ASSERT_EQ(a[i].score, b[i].score) << "query " << q << " rank " << i;
    }
  }
}

TEST(Segment, EmptyPostingListsRoundTrip) {
  // Term ids above anything the corpus uses -> guaranteed empty lists.
  SyntheticDocConfig config;
  config.seed = 5;
  config.docCount = 50;
  config.termCount = 40;
  const InvertedIndex built(/*termCount=*/64, generateDocuments(config));
  const std::string path = tempPath("sparse.seg");
  writeSegment(built, path);
  const InvertedIndex loaded(std::make_shared<const MappedSegment>(path));
  for (TermId t = 0; t < built.termCount(); ++t)
    EXPECT_EQ(loaded.documentFrequency(t), built.documentFrequency(t));
}

TEST(Segment, PartitionedWriteAndLoadRoundTrips) {
  SyntheticDocConfig config;
  config.seed = 7;
  config.docCount = 400;
  config.termCount = 200;
  const auto docs = generateDocuments(config);
  const PartitionedIndex built(config.termCount, docs, 4);
  const std::string dir = tempPath("shards");
  const auto paths = built.writeSegmentDir(dir);
  ASSERT_EQ(paths.size(), 4u);

  const PartitionedIndex loaded = PartitionedIndex::fromSegmentDir(dir);
  ASSERT_EQ(loaded.shardCount(), built.shardCount());
  EXPECT_EQ(loaded.globalStats().documentCount,
            built.globalStats().documentCount);
  EXPECT_EQ(loaded.globalStats().avgDocLength, built.globalStats().avgDocLength);
  std::mt19937_64 rng(1);
  for (int q = 0; q < 50; ++q) {
    const std::vector<TermId> terms{static_cast<TermId>(rng() % config.termCount),
                                    static_cast<TermId>(rng() % config.termCount)};
    const auto a = built.searchTopK(terms, 10);
    const auto b = loaded.searchTopK(terms, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].doc, b[i].doc);
      ASSERT_EQ(a[i].score, b[i].score);
    }
  }
}

TEST(Segment, SameContentReadsStatisticsAndEveryPlaneChecksum) {
  const InvertedIndex built = buildIndex();
  const std::string path = tempPath("same-a.seg");
  const std::string twin = tempPath("same-b.seg");
  const std::string other = tempPath("same-other.seg");
  writeSegment(built, path);
  writeSegment(built, twin);
  writeSegment(buildIndex(12), other);
  const MappedSegment a(path), b(twin), c(other);
  EXPECT_TRUE(sameSegmentContent(a.footer(), b.footer()));
  EXPECT_FALSE(sameSegmentContent(a.footer(), c.footer()));

  const SegmentFooter& f = a.footer();
  for (std::uint32_t plane = 0; plane < kSegmentPlaneCount; ++plane) {
    SegmentFooter g = f;
    g.planes[plane].crc ^= 1;
    EXPECT_FALSE(sameSegmentContent(f, g)) << segmentPlaneName(plane);
    g = f;
    g.planes[plane].bytes += 1;
    EXPECT_FALSE(sameSegmentContent(f, g)) << segmentPlaneName(plane);
  }
  SegmentFooter g = f;
  g.avgDocLength += 0.5;
  EXPECT_FALSE(sameSegmentContent(f, g));
  g = f;
  g.bm25K1 += 0.1;
  EXPECT_FALSE(sameSegmentContent(f, g));
  g = f;
  g.totalPostings += 1;
  EXPECT_FALSE(sameSegmentContent(f, g));
}

// ---- Corruption -------------------------------------------------------

TEST(Segment, SingleByteCorruptionInEveryPlaneIsRejected) {
  const InvertedIndex built = buildIndex();
  const std::string path = tempPath("corrupt-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);
  const SegmentFooter footer = footerOf(pristine);

  for (std::uint32_t p = 0; p < kSegmentPlaneCount; ++p) {
    const SegmentPlane& plane = footer.planes[p];
    ASSERT_GT(plane.bytes, 0u) << segmentPlaneName(p);
    // Flip one byte at the start, middle, and end of the plane's content.
    for (const std::uint64_t at :
         {plane.offset, plane.offset + plane.bytes / 2,
          plane.offset + plane.bytes - 1}) {
      auto bytes = pristine;
      bytes[at] ^= 0xFF;
      const std::string mutated = tempPath("corrupt-plane.seg");
      writeFile(mutated, bytes);
      EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError)
          << segmentPlaneName(p) << " plane, byte " << at;
    }
  }
}

TEST(Segment, HeaderAndFooterCorruptionIsRejected) {
  const InvertedIndex built = buildIndex(13, 100, 80);
  const std::string path = tempPath("corrupt-hf-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);

  // Every byte of the header struct and of the footer.
  for (std::size_t at = 0; at < sizeof(SegmentHeader); ++at) {
    auto bytes = pristine;
    bytes[at] ^= 0xFF;
    const std::string mutated = tempPath("corrupt-head.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError) << "header+" << at;
  }
  for (std::size_t at = 0; at < sizeof(SegmentFooter); ++at) {
    auto bytes = pristine;
    bytes[bytes.size() - sizeof(SegmentFooter) + at] ^= 0xFF;
    const std::string mutated = tempPath("corrupt-foot.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError) << "footer+" << at;
  }
}

TEST(Segment, TruncationIsRejected) {
  const InvertedIndex built = buildIndex(17, 200, 100);
  const std::string path = tempPath("trunc-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{100}, std::size_t{kSegmentPageBytes},
        pristine.size() / 2, pristine.size() - 1}) {
    auto bytes = pristine;
    bytes.resize(keep);
    const std::string mutated = tempPath("trunc.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError) << "keep=" << keep;
  }
}

TEST(Segment, TrailingGarbageIsRejected) {
  const InvertedIndex built = buildIndex(19, 100, 60);
  const std::string path = tempPath("garbage-src.seg");
  writeSegment(built, path);
  auto bytes = readFile(path);
  bytes.push_back(0);
  const std::string mutated = tempPath("garbage.seg");
  writeFile(mutated, bytes);
  // The footer no longer sits at the tail: fileBytes disagrees.
  EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError);
}

TEST(Segment, NonSegmentFileIsRejected) {
  const std::string path = tempPath("not-a-segment.seg");
  writeFile(path, std::vector<std::uint8_t>(2 * kSegmentPageBytes, 0x41));
  EXPECT_THROW(MappedSegment{path}, SegmentFormatError);
}

TEST(Segment, InconsistentBlockMetadataIsRejectedEvenWithValidCrc) {
  // Corruption the checksums cannot see: a hostile writer that checksums
  // its own lies. Tamper block metadata, then recompute the plane CRC and
  // the footer CRC so only the semantic validation can catch it.
  const InvertedIndex built = buildIndex(29, 300, 150);
  const std::string path = tempPath("hostile-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);
  SegmentFooter footer = footerOf(pristine);
  ASSERT_GT(footer.totalBlocks, 2u);

  const auto rewriteCrcs = [](std::vector<std::uint8_t>& bytes,
                              SegmentFooter footer) {
    const SegmentPlane& meta = footer.planes[kPlaneMeta];
    footer.planes[kPlaneMeta].crc = crc32c(bytes.data() + meta.offset, meta.bytes);
    footer.crc = 0;
    footer.crc = crc32c(&footer, sizeof footer);
    std::memcpy(bytes.data() + bytes.size() - sizeof footer, &footer,
                sizeof footer);
  };

  // Case 1: first block's payload offset moved off zero.
  {
    auto bytes = pristine;
    PostingBlockMeta block;
    std::memcpy(&block, bytes.data() + footer.planes[kPlaneMeta].offset,
                sizeof block);
    block.dataOffset = 1;
    std::memcpy(bytes.data() + footer.planes[kPlaneMeta].offset, &block,
                sizeof block);
    rewriteCrcs(bytes, footer);
    const std::string mutated = tempPath("hostile-offset.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError);
  }
  // Case 2: a block claims more postings than its payload extent encodes.
  {
    auto bytes = pristine;
    PostingBlockMeta block;
    std::memcpy(&block, bytes.data() + footer.planes[kPlaneMeta].offset,
                sizeof block);
    block.count = static_cast<std::uint16_t>(block.count == 128 ? 127 : 128);
    std::memcpy(bytes.data() + footer.planes[kPlaneMeta].offset, &block,
                sizeof block);
    rewriteCrcs(bytes, footer);
    const std::string mutated = tempPath("hostile-count.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError);
  }
}

TEST(Segment, HostileDocRangePastDocCountIsRejected) {
  // A crafted segment whose CRCs all verify but whose block metadata
  // declares doc ids at or beyond the footer's docCount must be rejected
  // at load: decoded ids index docCount-sized arrays in the executors.
  const InvertedIndex built = buildIndex(41, 500, 100);
  const std::string path = tempPath("hostile-doccount-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);
  const SegmentFooter footer = footerOf(pristine);
  const std::uint64_t dirOff = footer.planes[kPlaneDirectory].offset;
  const std::uint64_t metaOff = footer.planes[kPlaneMeta].offset;

  // A term's *final* block has no successor constraining its doc range;
  // count >= 2 keeps every other block invariant satisfied after the edit.
  bool tested = false;
  for (std::uint32_t t = 0; t < footer.termCount && !tested; ++t) {
    const auto entry = readAt<SegmentTermEntry>(
        pristine, dirOff + t * sizeof(SegmentTermEntry));
    if (entry.blockCount == 0) continue;
    const std::uint64_t at =
        metaOff + (entry.blockBegin + entry.blockCount - 1) *
                      sizeof(PostingBlockMeta);
    auto block = readAt<PostingBlockMeta>(pristine, at);
    if (block.count < 2) continue;
    block.lastDoc = footer.docCount + 5;
    auto bytes = pristine;
    writeAt(bytes, at, block);
    recrcPlaneAndFooter(bytes, kPlaneMeta);
    const std::string mutated = tempPath("hostile-doccount.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError) << "term " << t;
    tested = true;
  }
  ASSERT_TRUE(tested) << "corpus produced no multi-posting final block";
}

TEST(Segment, HostileDeltaSumMismatchIsRejectedAtLoad) {
  // Metadata whose every static invariant holds, but whose payload deltas
  // do not walk exactly from firstDoc to lastDoc: shifting firstDoc down
  // by one leaves viewOf satisfied, and only the load-time decode pass
  // (prefix sums must land on lastDoc) can catch it. Exercised for both
  // encodings: a bit-packed full block and a VByte tail block.
  const InvertedIndex built = buildIndex(43, 2500, 40);
  const std::string path = tempPath("hostile-sum-src.seg");
  writeSegment(built, path);
  const auto pristine = readFile(path);
  const SegmentFooter footer = footerOf(pristine);
  const std::uint64_t dirOff = footer.planes[kPlaneDirectory].offset;
  const std::uint64_t metaOff = footer.planes[kPlaneMeta].offset;

  const auto mutateFirstDoc = [&](std::uint64_t blockAt) {
    auto bytes = pristine;
    auto block = readAt<PostingBlockMeta>(bytes, blockAt);
    block.firstDoc -= 1;
    writeAt(bytes, blockAt, block);
    recrcPlaneAndFooter(bytes, kPlaneMeta);
    const std::string mutated = tempPath("hostile-sum.seg");
    writeFile(mutated, bytes);
    EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError);
  };

  bool testedPacked = false, testedVbyte = false;
  for (std::uint32_t t = 0; t < footer.termCount; ++t) {
    const auto entry = readAt<SegmentTermEntry>(
        pristine, dirOff + t * sizeof(SegmentTermEntry));
    for (std::uint32_t b = 0; b < entry.blockCount; ++b) {
      const std::uint64_t at =
          metaOff + (entry.blockBegin + b) * sizeof(PostingBlockMeta);
      const auto block = readAt<PostingBlockMeta>(pristine, at);
      // firstDoc-1 must stay above the previous block's lastDoc (or >= 0
      // for the term's first block) so no other invariant trips first.
      const bool shiftable =
          b == 0 ? block.firstDoc >= 1
                 : block.firstDoc >=
                       readAt<PostingBlockMeta>(
                           pristine, at - sizeof(PostingBlockMeta))
                               .lastDoc +
                           2;
      if (!shiftable || block.count < 2) continue;
      const bool vbyte = block.docBits == kVbyteTailBits;
      if (vbyte ? testedVbyte : testedPacked) continue;
      mutateFirstDoc(at);
      (vbyte ? testedVbyte : testedPacked) = true;
    }
  }
  ASSERT_TRUE(testedPacked) << "corpus produced no shiftable packed block";
  ASSERT_TRUE(testedVbyte) << "corpus produced no shiftable VByte tail";
}

TEST(Segment, HostileBlockCountOverflowIsRejected) {
  // totalBlocks + 2^61 wraps `totalBlocks * sizeof(PostingBlockMeta)` back
  // to the true plane size (40 * 2^61 == 5 * 2^64): without an explicit
  // count bound, the meta span would extend ~2^66 bytes past the mapping.
  const InvertedIndex built = buildIndex(47, 100, 60);
  const std::string path = tempPath("hostile-blocks-src.seg");
  writeSegment(built, path);
  auto bytes = readFile(path);
  SegmentFooter footer = footerOf(bytes);
  footer.totalBlocks += std::uint64_t{1} << 61;
  footer.crc = 0;
  footer.crc = crc32c(&footer, sizeof footer);
  std::memcpy(bytes.data() + bytes.size() - sizeof footer, &footer,
              sizeof footer);
  const std::string mutated = tempPath("hostile-blocks.seg");
  writeFile(mutated, bytes);
  EXPECT_THROW(MappedSegment{mutated}, SegmentFormatError);
}

/// Writes `bytes` to a scratch file and expects the load to fail with a
/// message naming `check`: the crafted files below carry valid CRCs and
/// pass every older check, so only the one under test may reject them.
void expectRejectedBy(const std::vector<std::uint8_t>& bytes,
                      const std::string& name, const std::string& check) {
  const std::string path = tempPath(name);
  writeFile(path, bytes);
  try {
    MappedSegment segment(path);
    ADD_FAILURE() << name << ": loaded, expected rejection by " << check;
  } catch (const SegmentFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(check), std::string::npos)
        << name << ": rejected for another reason: " << e.what();
  }
}

TEST(Segment, HostileDocIdOrderIsRejected) {
  // Dense order is ascending original id; two swapped docid rows would let
  // equal-score ties (broken by doc id) disagree with the cursor walk order.
  const InvertedIndex built = buildIndex(59, 200, 80);
  const std::string path = tempPath("hostile-docid-src.seg");
  writeSegment(built, path);
  auto bytes = readFile(path);
  const SegmentFooter footer = footerOf(bytes);
  const std::uint64_t at = footer.planes[kPlaneDocId].offset;
  const auto first = readAt<DocId>(bytes, at);
  const auto second = readAt<DocId>(bytes, at + sizeof(DocId));
  ASSERT_LT(first, second);
  writeAt(bytes, at, second);
  writeAt(bytes, at + sizeof(DocId), first);
  recrcPlaneAndFooter(bytes, kPlaneDocId);
  expectRejectedBy(bytes, "hostile-docid.seg", "docid plane not strictly ascending");
}

/// The first block of the first term with at least one block.
std::uint64_t firstBlockOffset(const std::vector<std::uint8_t>& bytes) {
  const SegmentFooter footer = footerOf(bytes);
  for (std::uint32_t t = 0; t < footer.termCount; ++t) {
    const auto entry = readAt<SegmentTermEntry>(
        bytes, footer.planes[kPlaneDirectory].offset + t * sizeof(SegmentTermEntry));
    if (entry.blockCount > 0)
      return footer.planes[kPlaneMeta].offset +
             entry.blockBegin * sizeof(PostingBlockMeta);
  }
  return 0;
}

TEST(Segment, HostileMinDocLenIsRejected) {
  // A block's minDocLen must not exceed any of its documents' lengths: the
  // recomputed (global-statistics) bound is only valid from below.
  const InvertedIndex built = buildIndex(61, 400, 100);
  const std::string path = tempPath("hostile-minlen-src.seg");
  writeSegment(built, path);
  auto bytes = readFile(path);
  const std::uint64_t at = firstBlockOffset(bytes);
  ASSERT_NE(at, 0u);
  auto block = readAt<PostingBlockMeta>(bytes, at);
  block.minDocLen += 1;  // the built value is the exact minimum
  writeAt(bytes, at, block);
  recrcPlaneAndFooter(bytes, kPlaneMeta);
  expectRejectedBy(bytes, "hostile-minlen.seg", "shorter than the block's declared minimum");
}

TEST(Segment, HostileMaxWeightIsRejected) {
  // A block's maxWeight must dominate every posting's weight at the built
  // statistics, or exact-bound pruning would skip a winning document.
  const InvertedIndex built = buildIndex(67, 400, 100);
  const std::string path = tempPath("hostile-weight-src.seg");
  writeSegment(built, path);
  auto bytes = readFile(path);
  const std::uint64_t at = firstBlockOffset(bytes);
  ASSERT_NE(at, 0u);
  auto block = readAt<PostingBlockMeta>(bytes, at);
  ASSERT_GT(block.maxWeight, 0.0);
  block.maxWeight *= 0.5;  // still finite and non-negative
  writeAt(bytes, at, block);
  recrcPlaneAndFooter(bytes, kPlaneMeta);
  expectRejectedBy(bytes, "hostile-weight.seg", "posting weight above the block's score bound");
}

TEST(Segment, DocumentFrequencyRejectsOutOfRangeTerm) {
  const InvertedIndex built = buildIndex(53, 50, 20);
  const std::string path = tempPath("df-range.seg");
  writeSegment(built, path);
  const MappedSegment segment(path);
  EXPECT_EQ(segment.documentFrequency(0), built.documentFrequency(0));
  EXPECT_THROW(segment.documentFrequency(segment.termCount()),
               std::out_of_range);
}

}  // namespace
}  // namespace resex
