#include "obs/context.hpp"

#include <algorithm>
#include <chrono>

#include "util/json_writer.hpp"

namespace resex::obs {
namespace {

std::chrono::steady_clock::time_point traceEpoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::uint64_t nowMicros() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - traceEpoch())
          .count());
}

SpanArena::SpanArena(std::uint32_t tid, std::size_t capacity)
    : tid_(tid), capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void SpanArena::record(const RichSpan& span) {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[next_] = span;
    wrapped_ = true;
  }
  next_ = (next_ + 1) % capacity_;
}

void SpanArena::collectTrace(std::uint64_t traceId,
                             std::vector<RichSpan>& out) const {
  std::lock_guard lock(mutex_);
  for (const RichSpan& span : ring_)
    if (span.traceId == traceId) out.push_back(span);
}

void SpanArena::collectTraceSince(std::uint64_t traceId, std::uint64_t sinceUs,
                                  std::vector<RichSpan>& out) const {
  std::lock_guard lock(mutex_);
  const std::size_t count = ring_.size();
  for (std::size_t back = 0; back < count; ++back) {
    // Newest first: next_ points one past the most recent record.
    const std::size_t i = (next_ + count - 1 - back) % count;
    const RichSpan& span = ring_[i];
    if (span.startUs + span.durUs < sinceUs) break;  // older spans only from here
    if (span.traceId == traceId) out.push_back(span);
  }
}

std::vector<RichSpan> SpanArena::spans() const {
  std::lock_guard lock(mutex_);
  if (!wrapped_) return ring_;
  std::vector<RichSpan> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  return out;
}

void SpanArena::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
}

bool TailSampler::shouldKeep(std::uint64_t durUs, bool forceKeep) noexcept {
  std::lock_guard lock(mutex_);
  bool keep = forceKeep;
  if (!forceKeep) {
    // Slower than every non-forced query of the previous group -> keep.
    // The threshold self-adapts: each group of N retires contributes its
    // max, so steady traffic keeps roughly the slowest 1/N. While the
    // first group is still forming there is no threshold yet; keep one
    // exemplar (the very first retire) rather than the whole warmup.
    // Non-forced keeps are additionally capped at one per group: under
    // latency drift (a ramping queue) nearly every retire can exceed the
    // previous group's max, and an unbounded keep rate turns promotion
    // into measurable serving overhead. The cap keeps the rate at 1/N in
    // the worst case while staying tail-biased.
    keep = (haveThreshold_ ? durUs > thresholdUs_ : groupCount_ == 0) &&
           !keptInGroup_;
    if (keep) keptInGroup_ = true;
    groupMaxUs_ = std::max(groupMaxUs_, durUs);
    if (++groupCount_ >= groupSize_) {
      thresholdUs_ = groupMaxUs_;
      haveThreshold_ = true;
      groupMaxUs_ = 0;
      groupCount_ = 0;
      keptInGroup_ = false;
    }
  }
  return keep;
}

TraceRegistry& TraceRegistry::global() {
  static TraceRegistry registry;
  return registry;
}

std::atomic<bool>& TraceRegistry::enabledFlag() noexcept {
  static std::atomic<bool> enabled{false};
  return enabled;
}

void TraceRegistry::setEnabled(bool enabled) noexcept {
  traceEpoch();  // pin the epoch no later than the first enable
  enabledFlag().store(enabled, std::memory_order_relaxed);
}

void TraceRegistry::setKeepSlowestOf(std::uint32_t n) {
  std::lock_guard lock(mutex_);
  sampler_ = std::make_unique<TailSampler>(n);
}

void TraceRegistry::setTraceCapacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  traceCapacity_ = std::max<std::size_t>(1, capacity);
  if (traces_.size() > traceCapacity_)
    traces_.erase(traces_.begin(),
                  traces_.end() - static_cast<std::ptrdiff_t>(traceCapacity_));
}

void TraceRegistry::setArenaCapacity(std::size_t capacity) noexcept {
  arenaCapacity_.store(std::max<std::size_t>(1, capacity),
                       std::memory_order_relaxed);
}

TraceContext TraceRegistry::startTrace() {
  if (!enabled()) return {};
  started_.fetch_add(1, std::memory_order_relaxed);
  return TraceContext{nextTraceId_.fetch_add(1, std::memory_order_relaxed), 0};
}

SpanArena& TraceRegistry::threadArena() {
  thread_local std::shared_ptr<SpanArena> arena;
  if (!arena) {
    arena = std::make_shared<SpanArena>(
        nextTid_.fetch_add(1, std::memory_order_relaxed),
        arenaCapacity_.load(std::memory_order_relaxed));
    std::lock_guard lock(mutex_);
    arenas_.push_back(arena);
  }
  return *arena;
}

bool TraceRegistry::retire(const TraceContext& ctx, std::uint64_t rootDurUs,
                           bool forceKeep, const char* keepReason) {
  if (!ctx.active()) return false;
  bool keep = false;
  {
    std::lock_guard lock(mutex_);
    keep = sampler_->shouldKeep(rootDurUs, forceKeep);
  }
  if (!keep) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Promotion (the slow path, kept traces only): gather this trace's spans
  // out of every arena. Spans already overwritten by ring wraparound are
  // lost — the plane is best-effort by design.
  TraceRecord record;
  record.traceId = ctx.traceId;
  record.keepReason = forceKeep ? keepReason : "slow";
  record.rootDurUs = rootDurUs;
  std::vector<std::shared_ptr<SpanArena>> arenas;
  {
    std::lock_guard lock(mutex_);
    arenas = arenas_;
  }
  // Every span of this trace started after the root did and was recorded
  // (at destruction) before this retire, so a newest-first scan of each
  // arena can stop at the root's start time instead of walking the whole
  // ring. The slack absorbs rounding between the clock reads.
  constexpr std::uint64_t kSinceSlackUs = 200;
  const std::uint64_t nowUs = nowMicros();
  const std::uint64_t sinceUs =
      nowUs > rootDurUs + kSinceSlackUs ? nowUs - rootDurUs - kSinceSlackUs : 0;
  for (const auto& arena : arenas)
    arena->collectTraceSince(ctx.traceId, sinceUs, record.spans);
  std::stable_sort(record.spans.begin(), record.spans.end(),
                   [](const RichSpan& a, const RichSpan& b) {
                     return a.startUs < b.startUs;
                   });
  {
    std::lock_guard lock(mutex_);
    traces_.push_back(std::move(record));
    if (traces_.size() > traceCapacity_) traces_.erase(traces_.begin());
  }
  kept_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TraceRegistry::emitTimeline(const char* name, std::uint64_t startUs,
                                 std::uint64_t durUs,
                                 std::initializer_list<SpanArg> args) {
  RichSpan span;
  span.name = name;
  span.startUs = startUs;
  span.durUs = durUs;
  span.tid = threadArena().tid();
  for (const SpanArg& arg : args) span.addArg(arg.key, arg.value);
  std::lock_guard lock(mutex_);
  timeline_.push_back(span);
  // Same retention bound as traces: timeline events are rare (epochs,
  // migration phases), so this trims only pathological runs.
  if (timeline_.size() > traceCapacity_ * 4)
    timeline_.erase(timeline_.begin());
}

std::vector<TraceRecord> TraceRegistry::recentTraces() const {
  std::lock_guard lock(mutex_);
  return traces_;
}

std::vector<RichSpan> TraceRegistry::timelineEvents() const {
  std::lock_guard lock(mutex_);
  return timeline_;
}

namespace {

void writeSpanJson(JsonWriter& json, const RichSpan& span) {
  json.beginObject();
  json.field("name", span.name != nullptr ? span.name : "");
  json.field("span_id", span.spanId);
  json.field("parent_span_id", span.parentSpanId);
  json.field("ts_us", span.startUs);
  json.field("dur_us", span.durUs);
  json.field("tid", span.tid);
  json.key("args").beginObject();
  for (std::uint32_t i = 0; i < span.argCount; ++i)
    json.field(span.args[i].key, span.args[i].value);
  json.endObject();
  json.endObject();
}

}  // namespace

std::string TraceRegistry::tracesJson() const {
  const std::vector<TraceRecord> traces = recentTraces();
  const std::vector<RichSpan> timeline = timelineEvents();
  JsonWriter json;
  json.beginObject();
  json.field("traces_started", tracesStarted());
  json.field("traces_kept", tracesKept());
  json.field("traces_dropped", tracesDropped());
  json.key("traces").beginArray();
  for (const TraceRecord& trace : traces) {
    json.beginObject();
    json.field("trace_id", trace.traceId);
    json.field("keep_reason", trace.keepReason);
    json.field("root_dur_us", trace.rootDurUs);
    json.key("spans").beginArray();
    for (const RichSpan& span : trace.spans) writeSpanJson(json, span);
    json.endArray();
    json.endObject();
  }
  json.endArray();
  json.key("timeline").beginArray();
  for (const RichSpan& event : timeline) writeSpanJson(json, event);
  json.endArray();
  json.endObject();
  return json.str();
}

void TraceRegistry::appendChromeEvents(std::string& out) const {
  const auto appendEvent = [&out](const RichSpan& span, const char* category,
                                  const TraceRecord* trace) {
    JsonWriter json;
    json.beginObject();
    json.field("name", span.name != nullptr ? span.name : "");
    json.field("cat", category);
    json.field("ph", "X");
    json.field("pid", 1);
    json.field("tid", span.tid);
    json.field("ts", span.startUs);
    // Perfetto renders zero-duration "X" events invisibly; floor at 1us.
    json.field("dur", std::max<std::uint64_t>(1, span.durUs));
    json.key("args").beginObject();
    if (trace != nullptr) {
      json.field("trace_id", trace->traceId);
      json.field("span_id", span.spanId);
      json.field("parent_span_id", span.parentSpanId);
      json.field("keep_reason", trace->keepReason);
    }
    for (std::uint32_t i = 0; i < span.argCount; ++i)
      json.field(span.args[i].key, span.args[i].value);
    json.endObject();
    json.endObject();
    if (!out.empty()) out += ",";
    out += json.str();
  };
  std::vector<std::shared_ptr<SpanArena>> arenas;
  {
    std::lock_guard lock(mutex_);
    arenas = arenas_;
  }
  for (const auto& arena : arenas)
    for (const RichSpan& span : arena->spans())
      if (span.traceId == 0) appendEvent(span, "resex", nullptr);
  for (const TraceRecord& trace : recentTraces())
    for (const RichSpan& span : trace.spans)
      appendEvent(span, "resex.query", &trace);
  for (const RichSpan& event : timelineEvents())
    appendEvent(event, "resex.timeline", nullptr);
}

void TraceRegistry::clear() {
  std::vector<std::shared_ptr<SpanArena>> arenas;
  {
    std::lock_guard lock(mutex_);
    arenas = arenas_;
    traces_.clear();
    timeline_.clear();
    sampler_ = std::make_unique<TailSampler>(sampler_->groupSize());
  }
  for (const auto& arena : arenas) arena->clear();
  started_.store(0, std::memory_order_relaxed);
  kept_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const TraceContext& ctx, const char* name) noexcept {
  if (!ctx.active()) return;
  span_.name = name;
  span_.traceId = ctx.traceId;
  span_.parentSpanId = ctx.parentSpanId;
  span_.spanId = TraceRegistry::global().nextSpanId();
  span_.startUs = nowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (span_.traceId == 0) return;
  TraceRegistry& registry = TraceRegistry::global();
  span_.durUs = nowMicros() - span_.startUs;
  SpanArena& arena = registry.threadArena();
  span_.tid = arena.tid();
  arena.record(span_);
}

void ProcessSpan::record() const {
  SpanArena& arena = TraceRegistry::global().threadArena();
  RichSpan span;
  span.name = name_;
  span.startUs = startUs_;
  span.durUs = nowMicros() - startUs_;
  span.tid = arena.tid();
  arena.record(span);
}

}  // namespace resex::obs
