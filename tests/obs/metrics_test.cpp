#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/mini_json.hpp"

namespace resex::obs {
namespace {

using resex::testing::MiniJson;

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.get(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42u);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.get(), 1.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.get(), 1.75);
}

TEST(Histogram, BucketsCountCumulatively) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (bounds are inclusive)
  h.observe(5.0);   // <= 10
  h.observe(50.0);  // <= 100
  h.observe(500.0); // overflow
  EXPECT_EQ(h.totalCount(), 5u);
  EXPECT_EQ(h.bucketCount(), 4u);
  EXPECT_EQ(h.countAt(0), 2u);
  EXPECT_EQ(h.countAt(1), 1u);
  EXPECT_EQ(h.countAt(2), 1u);
  EXPECT_EQ(h.countAt(3), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.meanValue(), 556.5 / 5.0);
}

TEST(Histogram, QuantileReturnsBucketBound) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 50; ++i) h.observe(1.5);  // bucket <= 2
  for (int i = 0; i < 50; ++i) h.observe(3.0);  // bucket <= 4
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // Empty histogram quantiles are defined as 0.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram::exponentialBounds(0.0, 2.0, 4), std::invalid_argument);
  const auto bounds = Histogram::exponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Series, AppendsAndMerges) {
  Series a;
  a.append(1.0, 2.0);
  a.append(3.0, 4.0, 5.0, 6.0);
  EXPECT_EQ(a.size(), 2u);
  Series b;
  b.append(7.0);
  b.appendAll(a);
  const auto points = b.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0][0], 7.0);
  EXPECT_DOUBLE_EQ(points[2][3], 6.0);
}

TEST(ScopedLatencyUs, RecordsOnScopeExit) {
  Histogram h(Histogram::latencyUsBounds());
  {
    ScopedLatencyUs latency(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.totalCount(), 1u);
  EXPECT_GE(h.sum(), 1000.0);  // at least 1ms in microseconds
}

TEST(MetricsRegistry, ReturnsStableReferencesAcrossReset) {
  auto& registry = MetricsRegistry::global();
  Counter& c = registry.counter("test.stable");
  c.add(5);
  registry.reset();
  EXPECT_EQ(c.get(), 0u);
  c.add(1);
  EXPECT_EQ(&registry.counter("test.stable"), &c);
  EXPECT_EQ(registry.counter("test.stable").get(), 1u);
}

TEST(MetricsRegistry, ConcurrentIncrementsFromThreadPoolAreExact) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  Counter& counter = registry.counter("test.concurrent");
  Histogram& hist = registry.histogram("test.concurrent_hist");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIncrements = 100000;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (std::size_t i = t; i < kIncrements; i += kThreads) {
        counter.add();
        hist.observe(static_cast<double>(i % 100));
      }
    });
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter.get(), kIncrements);
  EXPECT_EQ(hist.totalCount(), kIncrements);
  // Snapshot must agree with the instruments once writers are quiescent.
  const MetricsSnapshot snap = registry.snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.concurrent") {
      EXPECT_EQ(value, kIncrements);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  for (const auto& h : snap.histograms) {
    if (h.name != "test.concurrent_hist") continue;
    std::uint64_t total = 0;
    for (const std::uint64_t c : h.counts) total += c;
    EXPECT_EQ(total, h.total);
    EXPECT_EQ(h.total, kIncrements);
  }
}

TEST(MetricsRegistry, JsonRoundTrip) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.counter("test.json.counter").add(42);
  registry.gauge("test.json.gauge").set(2.5);
  Histogram& hist = registry.histogram("test.json.hist", {10.0, 20.0});
  hist.observe(5.0);
  hist.observe(15.0);
  hist.observe(99.0);
  registry.series("test.json.series").append(1.0, 2.0, 3.0, 4.0);

  const auto flat = MiniJson::flatten(registry.snapshot().toJson());
  EXPECT_EQ(flat.at("counters/test.json.counter"), "42");
  EXPECT_EQ(std::stod(flat.at("gauges/test.json.gauge")), 2.5);
  EXPECT_EQ(flat.at("histograms/test.json.hist/count"), "3");
  // Three buckets: le=10, le=20, le=inf, one sample each.
  EXPECT_EQ(flat.at("histograms/test.json.hist/buckets/#size"), "3");
  EXPECT_EQ(flat.at("histograms/test.json.hist/buckets/0/count"), "1");
  EXPECT_EQ(flat.at("histograms/test.json.hist/buckets/2/le"), "inf");
  EXPECT_EQ(flat.at("histograms/test.json.hist/buckets/2/count"), "1");
  EXPECT_EQ(std::stod(flat.at("series/test.json.series/0/3")), 4.0);
  registry.reset();
}

TEST(MetricsRegistry, PrometheusTextExport) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.counter("test.prom.counter").add(3);
  registry.histogram("test.prom.hist", {1.0}).observe(0.5);
  const std::string text = registry.snapshot().toPrometheusText();
  EXPECT_NE(text.find("# TYPE test_prom_counter_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos);
  registry.reset();
}

TEST(MetricsRegistry, PrometheusCounterSuffixIsNotDoubled) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  registry.counter("test.prom.requests_total").add(7);
  const std::string text = registry.snapshot().toPrometheusText();
  EXPECT_NE(text.find("test_prom_requests_total 7"), std::string::npos);
  EXPECT_EQ(text.find("test_prom_requests_total_total"), std::string::npos);
  registry.reset();
}

}  // namespace
}  // namespace resex::obs
