// Golden segment bytes: a fixed-seed corpus must always encode to the same
// shard files. The expected hashes pin the v1 format byte-for-byte, so any
// change to block planning, bit packing, plane layout or footer contents
// shows up here as a hash mismatch rather than as a silently different file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "index/partition.hpp"
#include "index/segment.hpp"

namespace resex {
namespace {

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct GoldenShard {
  std::uint64_t fileHash;
  std::uint64_t fileBytes;
  std::size_t indexBytes;
  std::size_t totalPostings;
};

TEST(SegmentGolden, ShardFilesMatchReferenceBytes) {
  // Dense head terms (zero-bit full blocks), a long tail of VByte-only
  // lists, and 20 term ids past the corpus vocabulary (empty lists).
  SyntheticDocConfig config;
  config.seed = 2024;
  config.docCount = 3000;
  config.termCount = 700;
  const PartitionedIndex index(720, generateDocuments(config), 4,
                               {1.0, 2.0, 0.5, 1.5});
  const GoldenShard expected[] = {
      {0x3e156cef15910d73ull, 118976, 68127, 23900},
      {0xd4d404eb43abb5fcull, 159936, 102229, 46856},
      {0x6f66a64f0ed79cfdull, 94400, 48396, 11734},
      {0xb7d163c2107d08d9ull, 131264, 84578, 34942},
  };
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "golden-shards").string();
  std::filesystem::remove_all(dir);
  const auto paths = index.writeSegmentDir(dir);
  ASSERT_EQ(paths.size(), std::size(expected));
  for (std::size_t s = 0; s < paths.size(); ++s) {
    const std::vector<std::uint8_t> bytes = readFile(paths[s]);
    EXPECT_EQ(fnv1a64(bytes), expected[s].fileHash) << "shard " << s;
    EXPECT_EQ(bytes.size(), expected[s].fileBytes) << "shard " << s;
    EXPECT_EQ(index.shard(s).indexBytes(), expected[s].indexBytes) << "shard " << s;
    EXPECT_EQ(index.shard(s).totalPostings(), expected[s].totalPostings)
        << "shard " << s;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace resex
