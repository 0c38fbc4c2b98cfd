#include "util/log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>

namespace resex {
namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};

std::mutex g_sinkMutex;
std::shared_ptr<const LogSink> g_sink;  // null = stderr

const char* levelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?????";
  }
}

/// ISO-8601 UTC with milliseconds, e.g. 2026-08-05T12:34:56.789Z.
int formatTimestamp(char* buf, std::size_t size) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Clamped to their calendar ranges, so the compiler can prove each field
  // fits its width and the stamp fits in 25 bytes.
  return std::snprintf(buf, size, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                       std::clamp(tm.tm_year + 1900, 0, 9999),
                       std::clamp(tm.tm_mon + 1, 1, 12), std::clamp(tm.tm_mday, 1, 31),
                       std::clamp(tm.tm_hour, 0, 23), std::clamp(tm.tm_min, 0, 59),
                       std::clamp(tm.tm_sec, 0, 60),
                       std::clamp(static_cast<int>(millis), 0, 999));
}

}  // namespace

void setLogLevel(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel logLevel() noexcept { return g_level.load(std::memory_order_relaxed); }

void setLogSink(LogSink sink) {
  std::lock_guard lock(g_sinkMutex);
  g_sink = sink ? std::make_shared<const LogSink>(std::move(sink)) : nullptr;
}

std::uint32_t logThreadId() noexcept {
  static std::atomic<std::uint32_t> nextId{1};
  thread_local const std::uint32_t id =
      nextId.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void logf(LogLevel level, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  char line[2048];
  char stamp[40];
  formatTimestamp(stamp, sizeof stamp);
  const int prefix = std::snprintf(line, sizeof line, "[%s T%u resex %s] ",
                                   stamp, logThreadId(), levelName(level));
  if (prefix < 0) return;
  va_list args;
  va_start(args, fmt);
  const int body = std::vsnprintf(line + prefix,
                                  sizeof line - static_cast<std::size_t>(prefix) - 2,
                                  fmt, args);
  va_end(args);
  if (body < 0) return;
  // vsnprintf returns the untruncated length; clamp to what actually fits
  // so the newline append stays inside the buffer.
  const std::size_t len =
      std::min(static_cast<std::size_t>(prefix) + static_cast<std::size_t>(body),
               sizeof line - 2);

  std::shared_ptr<const LogSink> sink;
  {
    std::lock_guard lock(g_sinkMutex);
    sink = g_sink;
  }
  if (sink) {
    line[len] = '\0';
    (*sink)(level, std::string(line, len));
    return;
  }
  line[len] = '\n';
  line[len + 1] = '\0';
  std::fputs(line, stderr);
}

}  // namespace resex
