#include "index/inverted_index.hpp"

#include <gtest/gtest.h>

#include "index/partition.hpp"
#include "index/segment.hpp"

namespace resex {
namespace {

std::vector<Document> tinyCorpus() {
  // term vocabulary: 0..4
  return {
      {0, {0, 1, 1, 2}},     // len 4
      {1, {1, 3}},           // len 2
      {2, {0, 0, 0, 4, 2}},  // len 5
  };
}

TEST(Index, BasicStatistics) {
  const InvertedIndex index(5, tinyCorpus());
  EXPECT_EQ(index.documentCount(), 3u);
  EXPECT_EQ(index.termCount(), 5u);
  EXPECT_EQ(index.documentFrequency(0), 2u);  // docs 0, 2
  EXPECT_EQ(index.documentFrequency(1), 2u);  // docs 0, 1
  EXPECT_EQ(index.documentFrequency(3), 1u);
  EXPECT_EQ(index.documentFrequency(4), 1u);
  EXPECT_NEAR(index.averageDocLength(), (4 + 2 + 5) / 3.0, 1e-12);
  EXPECT_EQ(index.totalPostings(), 2u + 2u + 2u + 1u + 1u);
}

TEST(Index, PostingListsDecodeWithFrequencies) {
  const InvertedIndex index(5, tinyCorpus());
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
  index.postings(0).decode(docs, freqs);
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(index.docId(docs[0]), 0u);
  EXPECT_EQ(index.docId(docs[1]), 2u);
  EXPECT_EQ(freqs[0], 1u);
  EXPECT_EQ(freqs[1], 3u);  // term 0 appears 3x in doc 2
}

TEST(Index, DocumentsMayArriveUnsorted) {
  std::vector<Document> docs = tinyCorpus();
  std::swap(docs[0], docs[2]);
  const InvertedIndex index(5, docs);
  EXPECT_EQ(index.documentFrequency(0), 2u);
  EXPECT_EQ(index.docId(0), 0u);  // dense order is ascending original id
  EXPECT_EQ(index.docId(2), 2u);
}

TEST(Index, RejectsDuplicateDocIds) {
  std::vector<Document> docs = tinyCorpus();
  docs[1].id = 0;
  EXPECT_THROW(InvertedIndex(5, docs), std::invalid_argument);
}

TEST(Index, RejectsOutOfRangeTerms) {
  std::vector<Document> docs = tinyCorpus();
  docs[0].terms.push_back(99);
  EXPECT_THROW(InvertedIndex(5, docs), std::invalid_argument);
}

TEST(Index, EmptyCorpusIsEmptyIndex) {
  const InvertedIndex index(3, {});
  EXPECT_EQ(index.documentCount(), 0u);
  EXPECT_EQ(index.documentFrequency(0), 0u);
  EXPECT_EQ(index.averageDocLength(), 0.0);
}

TEST(Index, BytesAccountedAndCompressed) {
  const SyntheticDocConfig config{.seed = 3, .docCount = 500, .termCount = 200};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  EXPECT_GT(index.indexBytes(), 0u);
  // VByte with small deltas: well under 8 bytes per posting (docid+freq).
  EXPECT_LT(index.indexBytes(), index.totalPostings() * 8);
}

TEST(Index, ListsShareOnePayloadAndOneMetaPlane) {
  // An in-memory index stores postings in a fixed number of buffers, not
  // buffers per term: every list is a view into the shared planes, laid
  // out exactly as the segment directory says.
  const SyntheticDocConfig config{.seed = 4, .docCount = 800, .termCount = 300};
  const InvertedIndex index(config.termCount, generateDocuments(config));
  const SegmentPlanes& planes = index.planes();
  ASSERT_EQ(planes.directory.size(), index.termCount());
  for (TermId t = 0; t < index.termCount(); ++t) {
    const PostingList list = index.postings(t);
    const SegmentTermEntry& entry = planes.directory[t];
    EXPECT_EQ(list.payload().data(), planes.payload.data() + entry.payloadOffset)
        << "term " << t;
    EXPECT_EQ(list.payload().size(), entry.payloadBytes) << "term " << t;
    EXPECT_EQ(list.blocks().data(), planes.metas.data() + entry.blockBegin)
        << "term " << t;
    EXPECT_EQ(list.blockCount(), entry.blockCount) << "term " << t;
    EXPECT_EQ(list.documentCount(), entry.postingCount) << "term " << t;
  }
  EXPECT_EQ(index.indexBytes(), planes.payload.size() + planes.metas.size_bytes());
}

TEST(Index, ResidentBytesStayNearIndexBytes) {
  // What a shard keeps resident is what the planner charges (indexBytes)
  // plus the doc-length/doc-id planes and a small constant per term (its
  // directory row).
  constexpr std::size_t kPerTermBytes = sizeof(SegmentTermEntry);
  const SyntheticDocConfig config{.seed = 6, .docCount = 1500, .termCount = 500};
  const InvertedIndex index(config.termCount, generateDocuments(config));
  const std::size_t docPlanes = index.documentCount() * 2 * sizeof(std::uint32_t);
  EXPECT_GE(index.residentBytes(), index.indexBytes() + docPlanes);
  EXPECT_LE(index.residentBytes(), index.indexBytes() + docPlanes +
                                       kPayloadPadBytes +
                                       index.termCount() * kPerTermBytes);
}

TEST(Index, DocumentFrequenciesFollowZipfShape) {
  SyntheticDocConfig config;
  config.seed = 9;
  config.docCount = 3000;
  config.termCount = 500;
  config.termExponent = 1.0;
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  // Rank-0 term must dominate mid-vocabulary terms.
  EXPECT_GT(index.documentFrequency(0), index.documentFrequency(50));
  EXPECT_GT(index.documentFrequency(0), 4 * index.documentFrequency(250));
}

TEST(DocGen, ShapesAndDeterminism) {
  SyntheticDocConfig config;
  config.seed = 5;
  config.docCount = 200;
  config.meanDocLength = 40.0;
  const auto a = generateDocuments(config);
  const auto b = generateDocuments(config);
  ASSERT_EQ(a.size(), 200u);
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, i);
    EXPECT_EQ(a[i].terms, b[i].terms);
    EXPECT_GE(a[i].terms.size(), 1u);
    total += static_cast<double>(a[i].terms.size());
  }
  EXPECT_NEAR(total / 200.0, 40.0, 8.0);
}

TEST(DocGen, RejectsEmptyConfigs) {
  SyntheticDocConfig config;
  config.docCount = 0;
  EXPECT_THROW(generateDocuments(config), std::invalid_argument);
}

}  // namespace
}  // namespace resex
