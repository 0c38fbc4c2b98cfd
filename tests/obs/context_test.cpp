#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"
#include "obs/export.hpp"

namespace resex::obs {
namespace {

using resex::testing::MiniJson;

class ContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRegistry::global().clear();
    TraceRegistry::global().setEnabled(true);
    TraceRegistry::global().setKeepSlowestOf(64);
  }
  void TearDown() override {
    TraceRegistry::global().setEnabled(false);
    TraceRegistry::global().clear();
    TraceRegistry::global().setKeepSlowestOf(64);
    TraceRegistry::global().setTraceCapacity(256);
    TraceRegistry::global().setArenaCapacity(
        TraceRegistry::kDefaultArenaCapacity);
  }
};

TEST_F(ContextTest, DefaultContextIsInactive) {
  const TraceContext ctx;
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.traceId, 0u);
}

TEST_F(ContextTest, ChildKeepsTraceAndRepointsParent) {
  const TraceContext ctx{42, 7};
  const TraceContext child = ctx.child(99);
  EXPECT_EQ(child.traceId, 42u);
  EXPECT_EQ(child.parentSpanId, 99u);
}

TEST_F(ContextTest, DisabledRegistryHandsOutInertContexts) {
  TraceRegistry::global().setEnabled(false);
  const TraceContext ctx = TraceRegistry::global().startTrace();
  EXPECT_FALSE(ctx.active());
  {
    ScopedSpan span(ctx, "test.inert");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(TraceRegistry::global().threadArena().spans().empty());
}

TEST_F(ContextTest, StartTraceAllocatesDistinctIds) {
  const TraceContext a = TraceRegistry::global().startTrace();
  const TraceContext b = TraceRegistry::global().startTrace();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.traceId, b.traceId);
  EXPECT_EQ(TraceRegistry::global().tracesStarted(), 2u);
}

TEST_F(ContextTest, ScopedSpanRecordsIntoThreadArenaWithArgs) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  std::uint32_t spanId = 0;
  {
    ScopedSpan span(ctx, "test.work");
    ASSERT_TRUE(span.active());
    spanId = span.spanId();
    span.arg("items", 12.0);
    span.arg("hit", 1.0);
  }
  std::vector<RichSpan> collected;
  TraceRegistry::global().threadArena().collectTrace(ctx.traceId, collected);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_STREQ(collected[0].name, "test.work");
  EXPECT_EQ(collected[0].spanId, spanId);
  EXPECT_EQ(collected[0].traceId, ctx.traceId);
  ASSERT_EQ(collected[0].argCount, 2u);
  EXPECT_STREQ(collected[0].args[0].key, "items");
  EXPECT_DOUBLE_EQ(collected[0].args[0].value, 12.0);
}

TEST_F(ContextTest, SpanArgsBeyondCapacityAreDropped) {
  RichSpan span;
  for (std::size_t i = 0; i < kMaxSpanArgs + 4; ++i) span.addArg("k", 1.0);
  EXPECT_EQ(span.argCount, kMaxSpanArgs);
}

TEST_F(ContextTest, TailSamplerWarmupKeepsOneExemplarPerColdGroup) {
  TailSampler sampler(4);
  // No threshold yet: only the first retire of the warmup group is kept.
  EXPECT_TRUE(sampler.shouldKeep(100, false));
  EXPECT_FALSE(sampler.shouldKeep(200, false));
  EXPECT_FALSE(sampler.shouldKeep(300, false));
  EXPECT_FALSE(sampler.shouldKeep(50, false));
  // Threshold is now 300 (slowest of the first group).
  EXPECT_FALSE(sampler.shouldKeep(300, false));
  EXPECT_TRUE(sampler.shouldKeep(301, false));
}

TEST_F(ContextTest, TailSamplerAlwaysKeepsForcedRetires) {
  TailSampler sampler(4);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(sampler.shouldKeep(1, true));
}

TEST_F(ContextTest, TailSamplerCapsKeepsAtOnePerGroupUnderDrift) {
  TailSampler sampler(4);
  // Warmup group: exemplar + three drops establishes threshold 40.
  EXPECT_TRUE(sampler.shouldKeep(10, false));
  sampler.shouldKeep(20, false);
  sampler.shouldKeep(30, false);
  sampler.shouldKeep(40, false);
  // Monotone drift: every retire beats the previous group's max, but only
  // the first keep of each group of 4 survives (keep rate stays 1/N).
  int kept = 0;
  for (std::uint64_t dur = 100; dur < 100 + 40; ++dur)
    if (sampler.shouldKeep(dur, false)) ++kept;
  EXPECT_EQ(kept, 10);  // 40 retires / group size 4
}

TEST_F(ContextTest, RetireKeepsForcedTraceWithReasonAndSpans) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  {
    ScopedSpan span(ctx, "test.partition");
    span.arg("partition", 3.0);
  }
  ASSERT_TRUE(TraceRegistry::global().retire(ctx, 1234, /*forceKeep=*/true,
                                             "deadline"));
  const std::vector<TraceRecord> traces = TraceRegistry::global().recentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].traceId, ctx.traceId);
  EXPECT_STREQ(traces[0].keepReason, "deadline");
  EXPECT_EQ(traces[0].rootDurUs, 1234u);
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_STREQ(traces[0].spans[0].name, "test.partition");
  EXPECT_EQ(TraceRegistry::global().tracesKept(), 1u);
}

TEST_F(ContextTest, DroppedTracesAreNeverPromoted) {
  // keepSlowestOf=2: after the 2-retire warmup group sets threshold=20,
  // an equal-speed query is dropped.
  TraceRegistry::global().setKeepSlowestOf(2);
  const TraceContext warm1 = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(warm1, 10, false);
  const TraceContext warm2 = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(warm2, 20, false);
  TraceRegistry::global().clear();

  const TraceContext a = TraceRegistry::global().startTrace();
  { ScopedSpan span(a, "test.dropped"); }
  TraceRegistry::global().setKeepSlowestOf(2);  // resets sampler: cold again
  const TraceContext b = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(b, 50, false);  // warmup exemplar, kept
  EXPECT_FALSE(TraceRegistry::global().retire(a, 10, false));
  for (const TraceRecord& t : TraceRegistry::global().recentTraces())
    EXPECT_NE(t.traceId, a.traceId);
  EXPECT_GE(TraceRegistry::global().tracesDropped(), 1u);
}

TEST_F(ContextTest, RetainedRingEvictsOldestBeyondCapacity) {
  TraceRegistry::global().setTraceCapacity(3);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    const TraceContext ctx = TraceRegistry::global().startTrace();
    ids.push_back(ctx.traceId);
    TraceRegistry::global().retire(ctx, 100 + static_cast<std::uint64_t>(i),
                                   /*forceKeep=*/true, "forced");
  }
  const std::vector<TraceRecord> traces = TraceRegistry::global().recentTraces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces.front().traceId, ids[2]);
  EXPECT_EQ(traces.back().traceId, ids[4]);
}

TEST_F(ContextTest, ArenaRingWrapsDroppingOldestSpans) {
  SpanArena arena(1, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    RichSpan span;
    span.name = "test.wrap";
    span.traceId = 7;
    span.spanId = i + 1;
    arena.record(span);
  }
  const std::vector<RichSpan> live = arena.spans();
  ASSERT_EQ(live.size(), 4u);
  // Oldest first once wrapped: span ids 7..10 survive.
  EXPECT_EQ(live.front().spanId, 7u);
  EXPECT_EQ(live.back().spanId, 10u);
  std::vector<RichSpan> collected;
  arena.collectTrace(7, collected);
  EXPECT_EQ(collected.size(), 4u);
  collected.clear();
  arena.collectTrace(999, collected);
  EXPECT_TRUE(collected.empty());
}

TEST_F(ContextTest, TimelineEventsBypassSampling) {
  TraceRegistry::global().emitTimeline("controller.epoch", 1000, 250,
                                       {{"epoch", 3.0}});
  const std::vector<RichSpan> events = TraceRegistry::global().timelineEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "controller.epoch");
  EXPECT_EQ(events[0].startUs, 1000u);
  EXPECT_EQ(events[0].durUs, 250u);
  ASSERT_EQ(events[0].argCount, 1u);
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 3.0);
}

TEST_F(ContextTest, TracesJsonRoundTripsThroughParser) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  {
    ScopedSpan span(ctx, "test.json");
    span.arg("partition", 2.0);
  }
  TraceRegistry::global().retire(ctx, 500, true, "deadline");
  TraceRegistry::global().emitTimeline("executor.phase", 10, 20);
  const auto flat = MiniJson::flatten(TraceRegistry::global().tracesJson());
  EXPECT_EQ(flat.at("traces/0/keep_reason"), "deadline");
  EXPECT_EQ(flat.at("traces/0/root_dur_us"), "500");
  EXPECT_EQ(flat.at("traces/0/spans/0/name"), "test.json");
  EXPECT_EQ(flat.at("traces/0/spans/0/args/partition"), "2");
  EXPECT_EQ(flat.at("timeline/0/name"), "executor.phase");
}

TEST_F(ContextTest, ChromeEventsAppendAsValidJsonArrayBody) {
  { RESEX_TRACE_SPAN("test.process"); }
  const TraceContext ctx = TraceRegistry::global().startTrace();
  { ScopedSpan span(ctx, "test.chrome"); }
  TraceRegistry::global().retire(ctx, 100, true, "forced");
  TraceRegistry::global().emitTimeline("controller.epoch", 5, 6);
  std::string events;
  TraceRegistry::global().appendChromeEvents(events);
  ASSERT_FALSE(events.empty());
  const auto flat = MiniJson::flatten("[" + events + "]");
  // One process span, one query span and one timeline event, each a
  // complete "X" event in its own category.
  ASSERT_EQ(flat.at("/#size"), "3");
  std::set<std::string> categories;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(flat.at("/" + std::to_string(i) + "/ph"), "X");
    categories.insert(flat.at("/" + std::to_string(i) + "/cat"));
  }
  EXPECT_EQ(categories,
            (std::set<std::string>{"resex", "resex.query", "resex.timeline"}));
}

TEST_F(ContextTest, ClearDropsTracesTimelineAndArenas) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  { ScopedSpan span(ctx, "test.clear"); }
  TraceRegistry::global().retire(ctx, 100, true, "forced");
  TraceRegistry::global().emitTimeline("t", 1, 1);
  TraceRegistry::global().clear();
  EXPECT_TRUE(TraceRegistry::global().recentTraces().empty());
  EXPECT_TRUE(TraceRegistry::global().timelineEvents().empty());
  EXPECT_TRUE(TraceRegistry::global().threadArena().spans().empty());
}


// -- Process spans (RESEX_TRACE_SPAN): untraced spans in the same arenas --

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRegistry::global().clear();
    TraceRegistry::global().setEnabled(false);
  }
  void TearDown() override {
    TraceRegistry::global().setEnabled(false);
    TraceRegistry::global().clear();
    TraceRegistry::global().setArenaCapacity(
        TraceRegistry::kDefaultArenaCapacity);
  }

  /// The process's one trace export (obs::writeTraceFile), read back.
  static std::string exportTrace() {
    const std::string path = ::testing::TempDir() + "resex_trace_test.json";
    EXPECT_TRUE(writeTraceFile(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  /// The calling thread's process spans, oldest first.
  static std::vector<RichSpan> threadProcessSpans() {
    std::vector<RichSpan> out;
    for (const RichSpan& span : TraceRegistry::global().threadArena().spans())
      if (span.traceId == 0) out.push_back(span);
    return out;
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    RESEX_TRACE_SPAN("test.disabled");
  }
  EXPECT_TRUE(TraceRegistry::global().threadArena().spans().empty());
  EXPECT_EQ(MiniJson::flatten(exportTrace()).at("/#size"), "0");
}

TEST_F(TraceTest, EnabledCapturesNameAndDuration) {
  TraceRegistry::global().setEnabled(true);
  {
    RESEX_TRACE_SPAN("test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    { RESEX_TRACE_SPAN("test.inner"); }
  }
  TraceRegistry::global().setEnabled(false);
  const std::vector<RichSpan> spans = threadProcessSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Recorded at scope exit: the inner span closes first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].traceId, 0u);
  EXPECT_EQ(spans[1].parentSpanId, 0u);
  EXPECT_GE(spans[1].durUs, 1000u);
  EXPECT_GE(spans[0].startUs, spans[1].startUs);
  EXPECT_LE(spans[0].startUs + spans[0].durUs,
            spans[1].startUs + spans[1].durUs + 1);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  TraceRegistry::global().setEnabled(true);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([] { RESEX_TRACE_SPAN("test.worker"); });
  for (auto& t : threads) t.join();
  TraceRegistry::global().setEnabled(false);
  // Arenas survive thread exit, so the export still sees all four.
  const auto flat = MiniJson::flatten(exportTrace());
  ASSERT_EQ(flat.at("/#size"), "4");
  std::set<std::string> tids;
  for (int i = 0; i < 4; ++i) {
    std::string event = "/";
    event += std::to_string(i);
    EXPECT_EQ(flat.at(event + "/name"), "test.worker");
    tids.insert(flat.at(event + "/tid"));
  }
  EXPECT_EQ(tids.size(), 4u);
}

TEST_F(TraceTest, RingKeepsMostRecentSpans) {
  TraceRegistry::global().setArenaCapacity(8);
  TraceRegistry::global().setEnabled(true);
  // A fresh thread so the small capacity applies to a new arena.
  std::vector<RichSpan> spans;
  std::thread([&spans] {
    for (int i = 0; i < 20; ++i) {
      RESEX_TRACE_SPAN("test.wrap");
    }
    spans = threadProcessSpans();
  }).join();
  TraceRegistry::global().setEnabled(false);
  ASSERT_EQ(spans.size(), 8u);
  // Oldest-first ordering must survive the wrap: starts are monotone.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].startUs, spans[i - 1].startUs);
}

TEST_F(TraceTest, ChromeExportIsValidTraceEventArray) {
  TraceRegistry::global().setEnabled(true);
  { RESEX_TRACE_SPAN("test.export"); }
  TraceRegistry::global().setEnabled(false);
  const auto flat = MiniJson::flatten(exportTrace());
  EXPECT_EQ(flat.at("/#size"), "1");
  EXPECT_EQ(flat.at("/0/name"), "test.export");
  EXPECT_EQ(flat.at("/0/cat"), "resex");
  EXPECT_EQ(flat.at("/0/ph"), "X");
  EXPECT_EQ(flat.at("/0/pid"), "1");
  EXPECT_NO_THROW(std::stod(flat.at("/0/ts")));
  EXPECT_NO_THROW(std::stod(flat.at("/0/dur")));
}

TEST_F(TraceTest, EmptyExportIsValidEmptyArray) {
  const auto flat = MiniJson::flatten(exportTrace());
  EXPECT_EQ(flat.at("/#size"), "0");
}

TEST_F(TraceTest, UntracedSpansDoNotCutTracePromotionShort) {
  // Process spans share the worker arena with a traced query's spans.
  // Retire's newest-first scan stops at the first span that ended before
  // the query started, so it relies on the ring being in end-time order
  // whatever kind of span sits in between.
  TraceRegistry::global().setEnabled(true);
  std::uint64_t startUs = 0;
  TraceContext ctx;
  {
    // Opens well before the query and closes inside it: a scan keyed on
    // start time rather than end time would stop here.
    RESEX_TRACE_SPAN("test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    startUs = nowMicros();
    ctx = TraceRegistry::global().startTrace();
    ScopedSpan first(ctx, "test.first");
    { RESEX_TRACE_SPAN("test.untraced.a"); }
    { ScopedSpan nested(first.childContext(), "test.nested"); }
    { RESEX_TRACE_SPAN("test.untraced.b"); }
  }
  { ScopedSpan last(ctx, "test.last"); }
  { RESEX_TRACE_SPAN("test.untraced.c"); }
  ASSERT_TRUE(TraceRegistry::global().retire(ctx, nowMicros() - startUs,
                                             /*forceKeep=*/true, "forced"));
  TraceRegistry::global().setEnabled(false);
  const std::vector<TraceRecord> traces = TraceRegistry::global().recentTraces();
  ASSERT_EQ(traces.size(), 1u);
  std::set<std::string> names;
  for (const RichSpan& span : traces[0].spans) names.insert(span.name);
  EXPECT_EQ(names, (std::set<std::string>{"test.first", "test.nested",
                                          "test.last"}));
}

// -- Concurrency: writers record while readers collect and export. Written
// for the TSan CI job, so missing synchronization in the arenas or the
// registry shows up as a reported race rather than a flaky assertion.

TEST(TraceConcurrency, BufferRecordRacesCollectCleanly) {
  SpanArena arena(1, 64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      RichSpan span;
      span.name = "test.span";
      span.startUs = t++;
      span.durUs = 1;
      arena.record(span);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::vector<RichSpan> spans = arena.spans();
    EXPECT_LE(spans.size(), 64u);
    for (const RichSpan& span : spans) EXPECT_STREQ(span.name, "test.span");
    std::vector<RichSpan> none;
    arena.collectTraceSince(7, 0, none);
    EXPECT_TRUE(none.empty());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  arena.clear();
  EXPECT_TRUE(arena.spans().empty());
}

TEST(TraceConcurrency, TracerThreadsRecordWhileExporting) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.clear();
  registry.setArenaCapacity(256);
  registry.setEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w)
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        RESEX_TRACE_SPAN("test.concurrent");
      }
    });
  for (int i = 0; i < 50; ++i) {
    std::string events;
    registry.appendChromeEvents(events);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  registry.setEnabled(false);
  registry.clear();
  registry.setArenaCapacity(TraceRegistry::kDefaultArenaCapacity);
}

TEST(TraceConcurrency, ArenaWraparoundUnderConcurrentCollect) {
  SpanArena arena(1, 32);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      RichSpan span;
      span.name = "test.wrap";
      span.traceId = 1 + (id % 8);
      span.spanId = id++;
      arena.record(span);
    }
  });
  for (int i = 0; i < 300; ++i) {
    std::vector<RichSpan> out;
    arena.collectTrace(1 + (i % 8), out);
    EXPECT_LE(out.size(), 32u);
    EXPECT_LE(arena.spans().size(), 32u);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(TraceConcurrency, RegistryRetireRacesReaders) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.clear();
  registry.setEnabled(true);
  registry.setKeepSlowestOf(8);
  registry.setTraceCapacity(64);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> retired{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TraceContext ctx = registry.startTrace();
        {
          ScopedSpan span(ctx, "test.query");
          span.arg("worker", static_cast<double>(w));
        }
        registry.retire(ctx, 10 + (i % 100), (i % 7) == 0, "deadline");
        retired.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  std::thread timeline([&] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_relaxed))
      registry.emitTimeline("test.epoch", t++, 1);
  });
  for (int i = 0; i < 100; ++i) {
    registry.recentTraces();
    registry.tracesJson();
    std::string events;
    registry.appendChromeEvents(events);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  timeline.join();

  EXPECT_EQ(registry.tracesKept() + registry.tracesDropped(), retired.load());
  EXPECT_LE(registry.recentTraces().size(), 64u);
  registry.setEnabled(false);
  registry.clear();
  registry.setKeepSlowestOf(64);
  registry.setTraceCapacity(256);
}

}  // namespace
}  // namespace resex::obs
