// Crash-safe file publication: write-temp -> fsync(file) -> rename ->
// fsync(parent dir).
//
// The invariant this module sells is *atomic visibility*: at every point in
// the protocol the final path either does not exist, still holds its old
// complete contents, or holds the new complete contents — never a prefix.
// A crash may strand the temp file (a real kill cannot unlink it first);
// that debris is invisible to readers of the final path and is what a
// recovery pass collects with removeTempFiles().
//
// writeSegment already applies the fsync-file-then-parent-dir
// discipline for freshly built segments; this helper packages the same
// discipline for *copies* (the migration mover) plus an enumerable crash
// hook so a test can kill the protocol between every pair of steps and
// assert the invariant at each point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace resex::util {

/// The protocol's observable steps, in execution order. The step hook fires
/// after each one completes.
enum class AtomicFileStep {
  kTempWritten,  ///< all payload bytes written to the temp file
  kTempSynced,   ///< fsync(temp) durable
  kRenamed,      ///< rename(temp, final) done — new contents now visible
  kDirSynced,    ///< fsync(parent dir) — the rename itself is durable
};

const char* atomicFileStepName(AtomicFileStep step) noexcept;

/// Test hook invoked after each protocol step. A hook that throws models a
/// crash at that exact point: the writer marks itself crashed and leaves
/// the temp file in place (a real kill would not clean up either), so the
/// test observes the same debris a recovery pass must handle.
using AtomicFileStepHook = std::function<void(AtomicFileStep)>;

/// Writes a file that becomes visible at `finalPath` atomically on
/// publish(). Destruction without publish() unlinks the temp (normal
/// failure cleanup) unless a step hook "crashed" the writer.
class AtomicFileWriter {
 public:
  /// Opens `<finalPath>.tmp-<token>` for writing (O_TRUNC). The token
  /// defaults to a process-unique suffix so concurrent writers toward the
  /// same final path never collide.
  explicit AtomicFileWriter(std::string finalPath, std::string tempToken = {});
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Appends `size` bytes; throws std::runtime_error on I/O failure.
  void write(const void* data, std::size_t size);
  std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }

  /// fsync(temp) -> close -> rename(temp, final) -> fsync(parent dir).
  /// After this returns the new contents are visible *and* durable.
  void publish();

  /// Abandons the write: closes and unlinks the temp file. Idempotent.
  void abort() noexcept;

  /// Closes the temp fd but leaves the temp *file* on disk — simulates the
  /// debris of a crash mid-copy (e.g. the destination machine died) that
  /// only recovery GC may clean up.
  void abandonKeepingTemp() noexcept;

  const std::string& finalPath() const noexcept { return finalPath_; }
  const std::string& tempPath() const noexcept { return tempPath_; }
  bool published() const noexcept { return published_; }

  void setStepHook(AtomicFileStepHook hook) { hook_ = std::move(hook); }

 private:
  void step(AtomicFileStep s);
  void closeFd() noexcept;

  std::string finalPath_;
  std::string tempPath_;
  int fd_ = -1;
  std::uint64_t bytesWritten_ = 0;
  bool published_ = false;
  bool crashed_ = false;
  AtomicFileStepHook hook_;
};

/// True when `name` (a bare filename or a path) follows the temp-file
/// convention used by AtomicFileWriter (an ".tmp-" infix).
bool isTempFileName(std::string_view name) noexcept;

/// Unlinks every temp-convention file directly inside `dir`; returns how
/// many were removed. Missing directories count as zero (nothing to GC).
std::size_t removeTempFiles(const std::string& dir);

}  // namespace resex::util
