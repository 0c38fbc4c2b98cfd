// Test helper: one posting list encoded into its own payload and meta
// buffers, served as a BlockPostingList view over them — the codec round
// trip without building a whole index.
#pragma once

#include <cstdint>
#include <vector>

#include "index/block_codec.hpp"

namespace resex {

struct EncodedList {
  /// Same contract as planPostingBlocks (throws std::invalid_argument on
  /// non-increasing ids, zero frequencies, or a size mismatch).
  EncodedList(const std::vector<DocId>& docs, const std::vector<std::uint32_t>& freqs,
              const std::vector<std::uint32_t>& docLengths = {},
              double avgDocLength = 0.0, const Bm25Params& params = {})
      : blocks(postingBlockCount(docs.size())) {
    const std::size_t bytes =
        planPostingBlocks(docs, freqs, docLengths, avgDocLength, params, blocks);
    payload.assign(bytes + kPayloadPadBytes, 0);
    packPostingBlocks(docs, freqs, blocks, payload.data());
    list = BlockPostingList::viewOf(
        blocks, payload.data(), bytes, docs.size(),
        docs.empty() ? 0 : static_cast<std::uint32_t>(docs.back() + 1));
  }
  // The view points into this object's buffers.
  EncodedList(const EncodedList&) = delete;
  EncodedList& operator=(const EncodedList&) = delete;

  std::vector<PostingBlockMeta> blocks;
  std::vector<std::uint8_t> payload;
  BlockPostingList list;
};

}  // namespace resex
