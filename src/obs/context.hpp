// Request-scoped tracing: per-query span trees with tail-based sampling.
//
// The legacy Tracer (trace.hpp) answers "where does *the process* spend
// time"; this layer answers "where did *this query* spend time". A
// TraceContext — a 64-bit trace id plus the parent span id — is allocated
// at the broker when a query is admitted and propagated by value through
// the work-queue task into workers, so every span a query touches (route,
// queue wait, per-partition execution, merge) links into one tree even
// though the spans are recorded on different threads.
//
// Hot-path contract: recording never allocates. Each thread owns a
// SpanArena — a fixed ring of RichSpan slots with inline argument storage
// — and a span record is a handful of stores plus one relaxed atomic for
// the span id. Whether a query's spans are *retained* is decided only at
// retire time (tail-based sampling): degraded / shed / deadline-missed
// queries are always kept, the slowest ~1/N of the rest are kept, and
// everything else is simply never promoted out of the arenas — dropped
// spans cost nothing beyond the slots they transiently occupied.
//
// Promotion is best-effort by design: a kept trace's spans are gathered
// from the arenas at retire time, so spans overwritten by ring wraparound
// under extreme load are lost (sized so this does not happen at sane
// depths). Timeline events (controller epochs, migration phases) bypass
// sampling entirely — they are rare and always retained, so one Perfetto
// export shows queries, re-plans, and migrations on a single timeline.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace resex::obs {

/// Propagated per-query identity: which trace a span belongs to and which
/// span is its parent. Copied by value into queue tasks; zero traceId
/// means "not traced" and makes every recording call a no-op.
struct TraceContext {
  std::uint64_t traceId = 0;
  std::uint32_t parentSpanId = 0;

  bool active() const noexcept { return traceId != 0; }
  /// The context a child scope should propagate: same trace, this span as
  /// the parent.
  TraceContext child(std::uint32_t spanId) const noexcept {
    return TraceContext{traceId, spanId};
  }
};

/// One numeric span annotation. Keys must be interned or literal strings
/// (see Tracer::internName); values are doubles so counts, ids, and
/// seconds all fit without per-arg allocation.
struct SpanArg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr std::size_t kMaxSpanArgs = 12;

/// A request-scoped span: identity, tree linkage, timing, and inline args.
struct RichSpan {
  const char* name = nullptr;  ///< literal or interned (stable) storage
  std::uint64_t traceId = 0;
  std::uint32_t spanId = 0;
  std::uint32_t parentSpanId = 0;  ///< 0 = root of its trace
  std::uint64_t startUs = 0;       ///< microseconds since tracer epoch
  std::uint64_t durUs = 0;
  std::uint32_t tid = 0;
  std::uint32_t argCount = 0;
  std::array<SpanArg, kMaxSpanArgs> args;

  void addArg(const char* key, double value) noexcept {
    if (argCount < kMaxSpanArgs) args[argCount++] = SpanArg{key, value};
  }
};

/// One thread's bounded ring of request-scoped spans. Same locking idiom
/// as TraceBuffer: the owner thread writes under a mutex that is only ever
/// contended by promotion/collection.
class SpanArena {
 public:
  explicit SpanArena(std::uint32_t tid, std::size_t capacity);

  void record(const RichSpan& span);
  /// All live spans belonging to `traceId`, appended to `out`.
  void collectTrace(std::uint64_t traceId, std::vector<RichSpan>& out) const;
  /// Like collectTrace, but only considers spans that *ended* at or after
  /// `sinceUs`. Spans are recorded at destruction, so per-arena ring order
  /// is monotone in end time; the scan walks newest-to-oldest and stops at
  /// the first older span. This bounds trace promotion to the spans
  /// recorded during the query's lifetime instead of the whole ring.
  void collectTraceSince(std::uint64_t traceId, std::uint64_t sinceUs,
                         std::vector<RichSpan>& out) const;
  /// Every live span (timeline export and tests).
  std::vector<RichSpan> spans() const;
  void clear();
  std::uint32_t tid() const noexcept { return tid_; }

 private:
  mutable std::mutex mutex_;
  std::uint32_t tid_;
  std::size_t capacity_;
  std::vector<RichSpan> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
};

/// A retained (sampled-in) trace: why it was kept plus its span tree.
struct TraceRecord {
  std::uint64_t traceId = 0;
  /// "degraded", "shed", "deadline", "slow", "forced" — the sampling
  /// verdict that retained it.
  const char* keepReason = "";
  std::uint64_t rootDurUs = 0;
  std::vector<RichSpan> spans;  ///< parent-linked; order is arena order
};

/// Tail-based sampling policy: always keep forced retires (degraded /
/// shed / deadline-missed), and of the rest keep the slowest ~1/N using a
/// self-adapting threshold — a query is kept when it is slower than every
/// non-forced query seen in the previous group of N retires. Thread-safe.
class TailSampler {
 public:
  explicit TailSampler(std::uint32_t keepSlowestOf = 64) noexcept
      : groupSize_(keepSlowestOf == 0 ? 1 : keepSlowestOf) {}

  /// Decides keep/drop for one retiring trace and advances the window.
  bool shouldKeep(std::uint64_t durUs, bool forceKeep) noexcept;
  std::uint32_t groupSize() const noexcept { return groupSize_; }

 private:
  std::uint32_t groupSize_;
  std::mutex mutex_;
  std::uint64_t thresholdUs_ = 0;  ///< slowest of the previous group
  bool haveThreshold_ = false;
  std::uint64_t groupMaxUs_ = 0;
  std::uint32_t groupCount_ = 0;
  bool keptInGroup_ = false;  ///< caps non-forced keeps at one per group
};

/// Process-wide registry for request-scoped traces: allocates trace/span
/// ids, owns the per-thread arenas, applies tail sampling at retire, and
/// stores the retained traces in a bounded ring for /traces and export.
class TraceRegistry {
 public:
  static TraceRegistry& global();

  /// Request-scoped tracing master switch (independent of Tracer's).
  void setEnabled(bool enabled) noexcept;
  static bool enabled() noexcept {
    return enabledFlag().load(std::memory_order_relaxed);
  }

  /// Keep the slowest ~1/N non-forced queries (resets the sampler).
  void setKeepSlowestOf(std::uint32_t n);
  /// Retained-trace ring capacity (default 256) and per-thread arena
  /// capacity for arenas created after the call.
  void setTraceCapacity(std::size_t capacity);
  void setArenaCapacity(std::size_t capacity) noexcept;

  /// Starts a new trace; inert context when disabled.
  TraceContext startTrace();
  /// Unique-within-process span id (one relaxed fetch_add).
  std::uint32_t nextSpanId() noexcept {
    return nextSpanId_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's arena, created and registered on first use.
  SpanArena& threadArena();

  /// Tail-sampling decision point, called once when the query completes.
  /// When the verdict is keep, the trace's spans are promoted out of the
  /// arenas into the retained ring under `keepReason`; returns whether the
  /// trace was kept. `rootDurUs` is the full query latency.
  bool retire(const TraceContext& ctx, std::uint64_t rootDurUs, bool forceKeep,
              const char* keepReason = "slow");

  /// Records an always-retained instant/duration event outside any query
  /// trace (controller epochs, migration phases). Args optional.
  void emitTimeline(const char* name, std::uint64_t startUs, std::uint64_t durUs,
                    std::initializer_list<SpanArg> args = {});

  /// Most recent retained traces, oldest first.
  std::vector<TraceRecord> recentTraces() const;
  std::vector<RichSpan> timelineEvents() const;

  /// JSON for the /traces endpoint: array of {trace_id, keep_reason,
  /// root_dur_us, spans:[{name,span_id,parent_span_id,ts_us,dur_us,tid,
  /// args:{...}}]}.
  std::string tracesJson() const;
  /// Chrome trace_event objects (no surrounding array) for every retained
  /// span and timeline event, appended to `out` — merged with the legacy
  /// Tracer's export by obs::writeTraceFile.
  void appendChromeEvents(std::string& out) const;

  /// Drops retained traces, timeline events, and arena contents; resets
  /// the sampler window. Counters (trace/span ids) keep advancing.
  void clear();

  /// Retire verdict counters, for tests and /metrics sanity.
  std::uint64_t tracesStarted() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }
  std::uint64_t tracesKept() const noexcept {
    return kept_.load(std::memory_order_relaxed);
  }
  std::uint64_t tracesDropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool>& enabledFlag() noexcept;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<SpanArena>> arenas_;
  std::vector<TraceRecord> traces_;  ///< bounded ring, oldest first
  std::vector<RichSpan> timeline_;   ///< bounded, oldest dropped
  std::size_t traceCapacity_ = 256;
  std::unique_ptr<TailSampler> sampler_ = std::make_unique<TailSampler>();
  std::atomic<std::size_t> arenaCapacity_{4096};
  std::atomic<std::uint64_t> nextTraceId_{1};
  std::atomic<std::uint32_t> nextSpanId_{1};
  std::atomic<std::uint32_t> nextTid_{1};
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII request-scoped span: opens under `ctx`, records into the calling
/// thread's arena on destruction. Inert (no id allocation, no recording)
/// when the context is inactive. Args may be attached any time before
/// scope exit.
class ScopedSpan {
 public:
  ScopedSpan(const TraceContext& ctx, const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, double value) noexcept { span_.addArg(key, value); }
  bool active() const noexcept { return span_.traceId != 0; }
  std::uint32_t spanId() const noexcept { return span_.spanId; }
  /// Context for work nested under this span.
  TraceContext childContext() const noexcept {
    return TraceContext{span_.traceId, span_.spanId};
  }

 private:
  RichSpan span_;
};

}  // namespace resex::obs
