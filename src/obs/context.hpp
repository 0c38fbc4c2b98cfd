// Tracing: one span store for process spans and per-query span trees.
//
// Every span lands in the calling thread's SpanArena. Two kinds share it:
//   - process spans (`RESEX_TRACE_SPAN("lns.repair")`, traceId == 0)
//     answer "where does *the process* spend time";
//   - request-scoped spans answer "where did *this query* spend time". A
//     TraceContext — a 64-bit trace id plus the parent span id — is
//     allocated at the broker when a query is admitted and propagated by
//     value through the work-queue task into workers, so every span a
//     query touches (route, queue wait, per-partition execution, merge)
//     links into one tree even though the spans are recorded on
//     different threads.
// TraceRegistry::setEnabled is the one switch for both. Disabled, a
// process span is a single relaxed atomic load — cheap enough to leave in
// solver inner loops — and a query gets an inert context.
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
// sampling entirely — they are rare and always retained. One Chrome
// trace_event export (appendChromeEvents) carries process spans, kept
// queries, re-plans and migrations on a single timeline.
//
// Span naming follows the metrics convention: `subsystem.verb`
// ("scheduler.build", "query.wand").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace resex::obs {

/// Microseconds since the trace epoch (first use in the process). Every
/// span and timeline event is stamped on this clock.
std::uint64_t nowMicros() noexcept;

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

/// One numeric span annotation. Keys must be string literals (storage that
/// outlives every arena); values are doubles so counts, ids, and seconds
/// all fit without per-arg allocation.
struct SpanArg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr std::size_t kMaxSpanArgs = 12;

/// A span: identity, tree linkage, timing, and inline args. traceId == 0
/// marks a process span (no trace, no parent).
struct RichSpan {
  const char* name = nullptr;  ///< string literal (outlives every arena)
  std::uint64_t traceId = 0;
  std::uint32_t spanId = 0;
  std::uint32_t parentSpanId = 0;  ///< 0 = root of its trace
  std::uint64_t startUs = 0;       ///< nowMicros() at span open
  std::uint64_t durUs = 0;
  std::uint32_t tid = 0;
  std::uint32_t argCount = 0;
  std::array<SpanArg, kMaxSpanArgs> args;

  void addArg(const char* key, double value) noexcept {
    if (argCount < kMaxSpanArgs) args[argCount++] = SpanArg{key, value};
  }
};

/// One thread's bounded ring of spans (oldest overwritten first). The
/// owner thread writes under a mutex that is only ever contended by
/// promotion/collection.
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
  /// Every live span, oldest first (Chrome export and tests).
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

/// Process-wide span store: allocates trace/span ids, owns the per-thread
/// arenas, applies tail sampling at retire, and stores the retained traces
/// in a bounded ring for /traces and export.
class TraceRegistry {
 public:
  static TraceRegistry& global();

  /// The tracing switch: process spans and request-scoped traces.
  void setEnabled(bool enabled) noexcept;
  static bool enabled() noexcept {
    return enabledFlag().load(std::memory_order_relaxed);
  }

  /// Keep the slowest ~1/N non-forced queries (resets the sampler).
  void setKeepSlowestOf(std::uint32_t n);
  /// Per-thread arena slots by default (about 4 MB of RichSpans). Sized
  /// for both kinds of span: a solver thread records tens of thousands of
  /// process spans per run, a serving worker a few per query.
  static constexpr std::size_t kDefaultArenaCapacity = 16384;

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
  /// Chrome trace_event objects (no surrounding array) for every process
  /// span still in an arena, every retained trace span and every timeline
  /// event, appended comma-separated to `out`; obs::writeTraceFile wraps
  /// them into the one array.
  void appendChromeEvents(std::string& out) const;

  /// Drops retained traces, timeline events, and arena contents (process
  /// spans included); resets
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
  std::atomic<std::size_t> arenaCapacity_{kDefaultArenaCapacity};
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

/// RAII process span; see RESEX_TRACE_SPAN. Records an untraced RichSpan
/// (traceId == 0) into the calling thread's arena on scope exit.
class ProcessSpan {
 public:
  explicit ProcessSpan(const char* name) noexcept
      : name_(TraceRegistry::enabled() ? name : nullptr) {
    if (name_) startUs_ = nowMicros();
  }
  ~ProcessSpan() {
    if (name_) record();
  }
  ProcessSpan(const ProcessSpan&) = delete;
  ProcessSpan& operator=(const ProcessSpan&) = delete;

 private:
  void record() const;

  const char* name_;
  std::uint64_t startUs_ = 0;
};

#define RESEX_OBS_CONCAT_IMPL(a, b) a##b
#define RESEX_OBS_CONCAT(a, b) RESEX_OBS_CONCAT_IMPL(a, b)
/// Records the enclosing scope as a process span named `name` (a string
/// literal) when tracing is enabled.
#define RESEX_TRACE_SPAN(name) \
  ::resex::obs::ProcessSpan RESEX_OBS_CONCAT(resexTraceSpan_, __LINE__)(name)

}  // namespace resex::obs
