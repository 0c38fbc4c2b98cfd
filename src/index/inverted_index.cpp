#include "index/inverted_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace resex {

InvertedIndex::InvertedIndex(std::shared_ptr<const MappedSegment> segment)
    : segment_(std::move(segment)) {
  if (!segment_)
    throw std::invalid_argument("InvertedIndex: null segment");
  planes_ = segment_->planes();
}

InvertedIndex::InvertedIndex(std::uint32_t termCount,
                             const std::vector<Document>& documents) {
  // Dense indices follow ascending original document id.
  std::vector<const Document*> ordered;
  ordered.reserve(documents.size());
  for (const Document& doc : documents) ordered.push_back(&doc);
  std::sort(ordered.begin(), ordered.end(),
            [](const Document* a, const Document* b) { return a->id < b->id; });
  for (std::size_t i = 1; i < ordered.size(); ++i)
    if (ordered[i]->id == ordered[i - 1]->id)
      throw std::invalid_argument("InvertedIndex: duplicate document id");

  auto heap = std::make_unique<HeapPlanes>();
  heap->docIds.reserve(ordered.size());
  heap->docLengths.reserve(ordered.size());
  double totalLength = 0.0;
  for (const Document* doc : ordered) {
    for (const TermId t : doc->terms)
      if (t >= termCount)
        throw std::invalid_argument("InvertedIndex: term id out of range");
    heap->docIds.push_back(doc->id);
    heap->docLengths.push_back(static_cast<std::uint32_t>(doc->terms.size()));
    totalLength += static_cast<double>(doc->terms.size());
  }
  // Average length must be known before the lists are encoded: the
  // per-block max-weight metadata is computed against it.
  const double avgDocLength =
      ordered.empty() ? 0.0 : totalLength / static_cast<double>(ordered.size());

  // Pass 1: document frequencies. `touched` collects each document's
  // distinct terms; `freqScratch` counts their occurrences.
  std::vector<std::uint32_t> freqScratch(termCount, 0);
  std::vector<TermId> touched;
  const auto countTerms = [&](const Document& doc) {
    touched.clear();
    for (const TermId t : doc.terms)
      if (freqScratch[t]++ == 0) touched.push_back(t);
  };
  std::vector<std::size_t> start(termCount + 1, 0);  // term t: [start[t], start[t+1])
  for (const Document* doc : ordered) {
    countTerms(*doc);
    for (const TermId t : touched) {
      ++start[t + 1];
      freqScratch[t] = 0;
    }
  }
  for (TermId t = 0; t < termCount; ++t) start[t + 1] += start[t];
  const std::size_t totalPostings = start[termCount];

  // Pass 2: every term's (dense doc, freq) pairs, contiguous and in dense
  // order, in two flat arrays.
  std::vector<DocId> flatDocs(totalPostings);
  std::vector<std::uint32_t> flatFreqs(totalPostings);
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t dense = 0; dense < ordered.size(); ++dense) {
      countTerms(*ordered[dense]);
      for (const TermId t : touched) {
        flatDocs[fill[t]] = static_cast<DocId>(dense);
        flatFreqs[fill[t]++] = freqScratch[t];
        freqScratch[t] = 0;
      }
    }
  }

  // Encode: plan every list's blocks into the one meta plane (sizing the
  // payload plane exactly), then pack every list into the payload plane.
  const Bm25Params params{};
  std::size_t blockCount = 0;
  for (TermId t = 0; t < termCount; ++t)
    blockCount += postingBlockCount(start[t + 1] - start[t]);
  heap->metas.resize(blockCount);
  heap->directory.resize(termCount);
  const auto docsOf = [&](TermId t) {
    return std::span<const DocId>(flatDocs).subspan(start[t], start[t + 1] - start[t]);
  };
  const auto freqsOf = [&](TermId t) {
    return std::span<const std::uint32_t>(flatFreqs)
        .subspan(start[t], start[t + 1] - start[t]);
  };
  std::size_t payloadBytes = 0;
  std::size_t blockBegin = 0;
  for (TermId t = 0; t < termCount; ++t) {
    SegmentTermEntry& entry = heap->directory[t];
    entry.postingCount = start[t + 1] - start[t];
    entry.blockBegin = blockBegin;
    entry.blockCount = static_cast<std::uint32_t>(postingBlockCount(entry.postingCount));
    entry.payloadOffset = payloadBytes;
    entry.payloadBytes = planPostingBlocks(
        docsOf(t), freqsOf(t), heap->docLengths, avgDocLength, params,
        std::span<PostingBlockMeta>(heap->metas).subspan(blockBegin, entry.blockCount));
    payloadBytes += entry.payloadBytes;
    blockBegin += entry.blockCount;
  }
  heap->payload.assign(payloadBytes + kPayloadPadBytes, 0);
  for (TermId t = 0; t < termCount; ++t) {
    const SegmentTermEntry& entry = heap->directory[t];
    packPostingBlocks(
        docsOf(t), freqsOf(t),
        std::span<const PostingBlockMeta>(heap->metas).subspan(entry.blockBegin, entry.blockCount),
        heap->payload.data() + entry.payloadOffset);
  }

  planes_.payload = {heap->payload.data(), payloadBytes};
  planes_.metas = heap->metas;
  planes_.docLengths = heap->docLengths;
  planes_.docIds = heap->docIds;
  planes_.directory = heap->directory;
  planes_.totalPostings = totalPostings;
  planes_.avgDocLength = avgDocLength;
  planes_.params = params;
  heap_ = std::move(heap);
}

}  // namespace resex
