#include "index/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "index/inverted_index.hpp"
#include "util/checksum.hpp"

namespace resex {

namespace {

std::uint64_t pageAlign(std::uint64_t offset) {
  return (offset + kSegmentPageBytes - 1) / kSegmentPageBytes * kSegmentPageBytes;
}

template <typename T>
std::uint32_t structCrc(const T& record) {
  // CRC of the record with its own crc field zeroed (every on-disk struct
  // names the field `crc`).
  T copy = record;
  copy.crc = 0;
  return crc32c(&copy, sizeof copy);
}

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

const char* segmentPlaneName(std::uint32_t plane) noexcept {
  switch (plane) {
    case kPlanePayload: return "payload";
    case kPlaneMeta: return "meta";
    case kPlaneDocLen: return "doclen";
    case kPlaneDocId: return "docid";
    case kPlaneDirectory: return "directory";
    default: return "unknown";
  }
}

bool sameSegmentContent(const SegmentFooter& a, const SegmentFooter& b) noexcept {
  if (a.termCount != b.termCount || a.docCount != b.docCount ||
      a.totalPostings != b.totalPostings || a.totalBlocks != b.totalBlocks ||
      a.avgDocLength != b.avgDocLength || a.bm25K1 != b.bm25K1 ||
      a.bm25B != b.bm25B)
    return false;
  for (std::uint32_t p = 0; p < kSegmentPlaneCount; ++p)
    if (a.planes[p].bytes != b.planes[p].bytes || a.planes[p].crc != b.planes[p].crc)
      return false;
  return true;
}

// ---- SegmentPlanes ----------------------------------------------------

BlockPostingList SegmentPlanes::postings(TermId term) const {
  const SegmentTermEntry& entry = directory[term];
  return BlockPostingList::overValidated(
      metas.subspan(entry.blockBegin, entry.blockCount),
      payload.data() + entry.payloadOffset, entry.payloadBytes,
      entry.postingCount);
}

// ---- Writer -----------------------------------------------------------

namespace {

/// Appends to a freshly created file, tracking the write position for the
/// page-aligned plane table.
class SegmentFile {
 public:
  explicit SegmentFile(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) throwErrno("writeSegment: cannot create", path);
  }
  ~SegmentFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  std::uint64_t position() const noexcept { return pos_; }

  void write(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0) {
      const ssize_t n = ::write(fd_, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        throwErrno("writeSegment: write failed for", path_);
      }
      p += n;
      size -= static_cast<std::size_t>(n);
      pos_ += static_cast<std::uint64_t>(n);
    }
  }

  void padToPage() {
    static const std::uint8_t zeros[512] = {};
    std::uint64_t pad = pageAlign(pos_) - pos_;
    while (pad > 0) {
      const std::size_t chunk =
          static_cast<std::size_t>(pad < sizeof zeros ? pad : sizeof zeros);
      write(zeros, chunk);
      pad -= chunk;
    }
  }

  /// fsyncs and closes the file, then fsyncs its parent directory: the
  /// migration copy path depends on the destination segment's *name*
  /// surviving a crash once writeSegment returns, not just its bytes.
  void commit() {
    if (::fsync(fd_) != 0) throwErrno("writeSegment: fsync failed for", path_);
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0) throwErrno("writeSegment: close failed for", path_);
    const std::size_t slash = path_.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash + 1);
    const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirFd < 0) throwErrno("writeSegment: cannot open directory", dir);
    if (::fsync(dirFd) != 0) {
      const int err = errno;
      ::close(dirFd);
      errno = err;
      throwErrno("writeSegment: directory fsync failed for", dir);
    }
    ::close(dirFd);
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t pos_ = 0;
};

}  // namespace

std::uint64_t writeSegment(const InvertedIndex& index, const std::string& path) {
  const SegmentPlanes& planes = index.planes();
  SegmentFooter footer;
  footer.termCount = planes.termCount();
  footer.docCount = planes.docCount();
  footer.totalPostings = planes.totalPostings;
  footer.totalBlocks = planes.metas.size();
  footer.avgDocLength = planes.avgDocLength;
  footer.bm25K1 = planes.params.k1;
  footer.bm25B = planes.params.b;

  SegmentFile file(path);
  SegmentHeader header;
  header.crc = structCrc(header);
  file.write(&header, sizeof header);
  file.padToPage();

  const auto writePlane = [&](std::uint32_t plane, const void* data,
                              std::size_t bytes) {
    footer.planes[plane] =
        SegmentPlane{file.position(), bytes, crc32c(data, bytes), 0};
    file.write(data, bytes);
    if (plane == kPlanePayload) {
      // The unpack kernels read up to kPayloadPadBytes past a list's
      // encoded bytes; guarantee that slack for the final list.
      static const std::uint8_t pad[kPayloadPadBytes] = {};
      file.write(pad, sizeof pad);
    }
    file.padToPage();
  };
  writePlane(kPlanePayload, planes.payload.data(), planes.payload.size());
  writePlane(kPlaneMeta, planes.metas.data(), planes.metas.size_bytes());
  writePlane(kPlaneDocLen, planes.docLengths.data(),
             planes.docLengths.size_bytes());
  writePlane(kPlaneDocId, planes.docIds.data(), planes.docIds.size_bytes());
  writePlane(kPlaneDirectory, planes.directory.data(),
             planes.directory.size_bytes());

  footer.fileBytes = file.position() + sizeof(SegmentFooter);
  footer.crc = structCrc(footer);
  file.write(&footer, sizeof footer);
  file.commit();
  return footer.fileBytes;
}

// ---- MappedSegment ----------------------------------------------------

void MappedSegment::reject(const std::string& what) const {
  throw SegmentFormatError("segment " + path_ + ": " + what);
}

MappedSegment::MappedSegment(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throwErrno("MappedSegment: cannot open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throwErrno("MappedSegment: cannot stat", path);
  }
  mapBytes_ = static_cast<std::size_t>(st.st_size);
  if (mapBytes_ < kSegmentPageBytes + sizeof(SegmentFooter)) {
    ::close(fd);
    reject("file too small to hold a header page and a footer");
  }
  map_ = ::mmap(nullptr, mapBytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throwErrno("MappedSegment: mmap failed for", path);
  }
  try {
    validate();
  } catch (...) {
    ::munmap(map_, mapBytes_);
    map_ = nullptr;
    throw;
  }
}

MappedSegment::~MappedSegment() {
  if (map_ != nullptr) ::munmap(map_, mapBytes_);
}

void MappedSegment::dropPageCache() const noexcept {
  // The mapping's fd was closed right after mmap, so advise through a fresh
  // handle on the path. Best-effort: a segment that was unlinked or moved
  // since simply keeps its pages until the mapping goes away.
  if (map_ != nullptr)
    ::madvise(map_, mapBytes_, MADV_DONTNEED);
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

void MappedSegment::validate() {
  SegmentHeader header;
  std::memcpy(&header, base(), sizeof header);
  if (header.magic != kSegmentMagic) reject("bad magic (not a segment file)");
  if (header.endianMark != kSegmentEndianMark)
    reject("endianness mismatch (written on a big-endian host?)");
  if (header.version != kSegmentVersion)
    reject("unsupported format version " + std::to_string(header.version));
  if (header.pageBytes != kSegmentPageBytes)
    reject("unsupported page size " + std::to_string(header.pageBytes));
  if (structCrc(header) != header.crc) reject("header checksum mismatch");

  std::memcpy(&footer_, base() + mapBytes_ - sizeof footer_, sizeof footer_);
  if (footer_.magic != kSegmentMagic) reject("bad footer magic (truncated?)");
  if (footer_.version != kSegmentVersion) reject("footer version mismatch");
  if (structCrc(footer_) != footer_.crc) reject("footer checksum mismatch");
  if (footer_.fileBytes != mapBytes_)
    reject("footer declares " + std::to_string(footer_.fileBytes) +
           " bytes, file has " + std::to_string(mapBytes_));
  if (!std::isfinite(footer_.avgDocLength) || footer_.avgDocLength < 0.0 ||
      !std::isfinite(footer_.bm25K1) || !std::isfinite(footer_.bm25B))
    reject("non-finite global statistics");

  // Plane table: page-aligned, in file order, non-overlapping, inside the
  // file body, and sized exactly as the footer's counts demand.
  const std::uint64_t bodyEnd = footer_.fileBytes - sizeof(SegmentFooter);
  // Bound the counts before multiplying: a crafted totalBlocks near 2^59
  // would otherwise wrap `totalBlocks * sizeof(PostingBlockMeta)` back to
  // a small value, pass the size checks, and leave metas_ a span that
  // extends far past the mapping.
  if (footer_.totalBlocks > bodyEnd / sizeof(PostingBlockMeta))
    reject("footer block count cannot fit in the file body");
  if (footer_.docCount > bodyEnd / sizeof(DocId))
    reject("footer document count cannot fit in the file body");
  if (footer_.termCount > bodyEnd / sizeof(SegmentTermEntry))
    reject("footer term count cannot fit in the file body");
  std::uint64_t prevEnd = kSegmentPageBytes;
  const std::uint64_t expectedBytes[kSegmentPlaneCount] = {
      footer_.planes[kPlanePayload].bytes,  // free-form; checked via directory
      footer_.totalBlocks * sizeof(PostingBlockMeta),
      footer_.docCount * sizeof(std::uint32_t),
      footer_.docCount * sizeof(DocId),
      footer_.termCount * sizeof(SegmentTermEntry),
  };
  for (std::uint32_t p = 0; p < kSegmentPlaneCount; ++p) {
    const SegmentPlane& plane = footer_.planes[p];
    const std::string name = segmentPlaneName(p);
    if (plane.offset % kSegmentPageBytes != 0)
      reject(name + " plane is not page-aligned");
    if (plane.offset < prevEnd) reject(name + " plane overlaps its neighbour");
    if (plane.offset > bodyEnd || plane.bytes > bodyEnd - plane.offset)
      reject(name + " plane extends past the file body");
    if (plane.bytes != expectedBytes[p])
      reject(name + " plane size disagrees with the footer counts");
    if (crc32c(base() + plane.offset, plane.bytes) != plane.crc)
      reject(name + " plane checksum mismatch");
    prevEnd = plane.offset + plane.bytes;
  }
  // The unpack kernels may read kPayloadPadBytes past the payload plane.
  const SegmentPlane& payload = footer_.planes[kPlanePayload];
  if (payload.offset + payload.bytes + kPayloadPadBytes > footer_.fileBytes)
    reject("payload plane is missing its read pad");

  planes_.payload = {base() + payload.offset, payload.bytes};
  planes_.metas = {reinterpret_cast<const PostingBlockMeta*>(
                       base() + footer_.planes[kPlaneMeta].offset),
                   footer_.totalBlocks};
  planes_.docLengths = {reinterpret_cast<const std::uint32_t*>(
                            base() + footer_.planes[kPlaneDocLen].offset),
                        footer_.docCount};
  planes_.docIds = {reinterpret_cast<const DocId*>(
                        base() + footer_.planes[kPlaneDocId].offset),
                    footer_.docCount};
  planes_.directory = {reinterpret_cast<const SegmentTermEntry*>(
                           base() + footer_.planes[kPlaneDirectory].offset),
                       footer_.termCount};
  planes_.totalPostings = footer_.totalPostings;
  planes_.avgDocLength = footer_.avgDocLength;
  planes_.params = {footer_.bm25K1, footer_.bm25B};

  // Directory: terms must tile the payload and meta planes exactly, in
  // order, and account for every posting the footer declares.
  std::uint64_t payloadCursor = 0, blockCursor = 0, postingSum = 0;
  for (std::uint32_t t = 0; t < footer_.termCount; ++t) {
    const SegmentTermEntry& entry = planes_.directory[t];
    if (entry.payloadOffset != payloadCursor)
      reject("term " + std::to_string(t) + ": payload bytes not contiguous");
    if (entry.blockBegin != blockCursor)
      reject("term " + std::to_string(t) + ": block metas not contiguous");
    if (entry.payloadBytes > payload.bytes - payloadCursor)
      reject("term " + std::to_string(t) + ": payload extends past the plane");
    if (entry.blockCount > footer_.totalBlocks - blockCursor)
      reject("term " + std::to_string(t) + ": blocks extend past the plane");
    payloadCursor += entry.payloadBytes;
    blockCursor += entry.blockCount;
    postingSum += entry.postingCount;
  }
  if (payloadCursor != payload.bytes)
    reject("directory covers " + std::to_string(payloadCursor) +
           " payload bytes, plane holds " + std::to_string(payload.bytes));
  if (blockCursor != footer_.totalBlocks)
    reject("directory covers " + std::to_string(blockCursor) +
           " blocks, footer declares " + std::to_string(footer_.totalBlocks));
  if (postingSum != footer_.totalPostings)
    reject("directory counts " + std::to_string(postingSum) +
           " postings, footer declares " +
           std::to_string(footer_.totalPostings));

  // Dense indices follow ascending original id, and the build rejects
  // duplicate ids: a docid plane that is not strictly ascending would make
  // equal-score ties (broken by doc id) disagree with the dense order the
  // scan accumulates in.
  for (std::uint32_t d = 1; d < footer_.docCount; ++d)
    if (planes_.docIds[d] <= planes_.docIds[d - 1])
      reject("docid plane not strictly ascending at dense index " +
             std::to_string(d));

  // Block metadata and payload: run the full viewOf validation for every
  // term, then decode every block once, so a segment either loads with
  // every invariant proven or not at all. viewOf bounds each block's doc
  // range below docCount; the decode pass proves the prefix-summed ids
  // actually land on each block's declared lastDoc, and that each
  // posting's frequency, document length and BM25 weight respect the
  // block's maxTf, minDocLen and maxWeight — the bounds a pruning kernel
  // would rely on. A segment that loads can therefore never hand the query
  // kernel an out-of-range doc id or an unsound block bound — hostile
  // bytes fail here, not mid-query. The pass costs one more sweep over
  // payload bytes the CRC check above already touched.
  std::vector<double> lengthNorms(footer_.docCount);
  for (std::uint32_t d = 0; d < footer_.docCount; ++d)
    lengthNorms[d] = bm25LengthNorm(planes_.docLengths[d], planes_.avgDocLength,
                                    planes_.params);
  std::vector<DocId> docs(kPostingBlockSize);
  std::vector<std::uint32_t> freqs(kPostingBlockSize);
  for (std::uint32_t t = 0; t < footer_.termCount; ++t) {
    const BlockPostingList list = validatedPostings(t);
    for (std::size_t b = 0; b < list.blockCount(); ++b) {
      std::uint32_t n = 0;
      try {
        n = list.decodeBlock(b, docs.data(), freqs.data());
      } catch (const std::exception& e) {
        reject("term " + std::to_string(t) + ": " + e.what());
      }
      const PostingBlockMeta& meta = list.block(b);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (freqs[i] > meta.maxTf)
          reject("term " + std::to_string(t) +
                 ": frequency above the block's declared maximum");
        if (planes_.docLengths[docs[i]] < meta.minDocLen)
          reject("term " + std::to_string(t) +
                 ": document shorter than the block's declared minimum");
        if (postingWeight(freqs[i], lengthNorms[docs[i]], planes_.params) >
            meta.maxWeight)
          reject("term " + std::to_string(t) +
                 ": posting weight above the block's score bound");
      }
    }
  }
}

BlockPostingList MappedSegment::validatedPostings(TermId term) const {
  const SegmentTermEntry& entry = planes_.directory[term];
  try {
    return BlockPostingList::viewOf(
        planes_.metas.subspan(entry.blockBegin, entry.blockCount),
        planes_.payload.data() + entry.payloadOffset, entry.payloadBytes,
        entry.postingCount, footer_.docCount);
  } catch (const std::invalid_argument& e) {
    throw SegmentFormatError("segment " + path_ + ": term " +
                             std::to_string(term) + ": " + e.what());
  }
}

}  // namespace resex
