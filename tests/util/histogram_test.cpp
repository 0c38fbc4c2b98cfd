#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace resex {
namespace {

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.totalCount(), 0u);
}

TEST(LatencyHistogram, QuantileNeverExceedsMaxSeen) {
  // Regression: log buckets overshoot — the representative value of the
  // top bucket can exceed the largest sample, reporting a p99 above any
  // latency that occurred. Quantiles clamp to maxSeen() now.
  LatencyHistogram h(1e-6, 4);  // coarse buckets make the overshoot large
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) h.add(rng.lognormal(-4.0, 1.5));
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_LE(h.quantile(q), h.maxSeen());
}

TEST(LatencyHistogram, FullQuantileIsExactlyMaxSeen) {
  LatencyHistogram h;
  h.add(0.004);
  h.add(0.017);
  h.add(0.0291);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0291);
}

TEST(LatencyHistogram, SingleValueRoundTripsWithinRelativeError) {
  LatencyHistogram h(1e-6, 16);
  h.add(0.123);
  const double q = h.quantile(0.5);
  EXPECT_NEAR(q, 0.123, 0.123 * 0.06);  // ~ +/- 2^(1/16)
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) h.add(rng.lognormal(-4.0, 1.0));
  double prev = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LatencyHistogram, QuantileApproximatesExactOrder) {
  LatencyHistogram h(1e-6, 32);
  for (int i = 1; i <= 1000; ++i) h.add(i * 0.001);
  // p50 of 0.001..1.000 is ~0.5.
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.03);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.05);
}

TEST(LatencyHistogram, TracksMaxAndMean) {
  LatencyHistogram h;
  h.add(1.0);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.maxSeen(), 3.0);
  EXPECT_DOUBLE_EQ(h.meanValue(), 2.0);
}

TEST(LatencyHistogram, MergeCombinesCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.add(0.1);
  b.add(10.0);
  b.add(20.0);
  a.merge(b);
  EXPECT_EQ(a.totalCount(), 3u);
  EXPECT_DOUBLE_EQ(a.maxSeen(), 20.0);
  EXPECT_GT(a.quantile(0.99), 5.0);
}

TEST(LatencyHistogram, MergeOfEmptyIsIdentity) {
  LatencyHistogram a;
  a.add(0.25);
  a.add(0.75);
  const double p50 = a.quantile(0.5);
  LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.totalCount(), 2u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), p50);
}

TEST(LatencyHistogram, MergeMatchesPooledSamples) {
  // Merging two histograms must give the same quantiles as one histogram
  // fed the pooled sample stream.
  LatencyHistogram a(1e-6, 16);
  LatencyHistogram b(1e-6, 16);
  LatencyHistogram pooled(1e-6, 16);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double xa = rng.lognormal(-3.0, 0.7);
    const double xb = rng.lognormal(-2.0, 0.7);
    a.add(xa);
    b.add(xb);
    pooled.add(xa);
    pooled.add(xb);
  }
  a.merge(b);
  EXPECT_EQ(a.totalCount(), pooled.totalCount());
  EXPECT_DOUBLE_EQ(a.maxSeen(), pooled.maxSeen());
  for (const double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), pooled.quantile(q));
}

TEST(LatencyHistogram, QuantileEndpointsBracketSamples) {
  LatencyHistogram h(1e-6, 32);
  for (int i = 1; i <= 100; ++i) h.add(i * 0.01);
  // q=0 sits at (or below) the smallest sample's bucket; q=1 at the
  // largest sample's bucket, within one bucket of relative error.
  EXPECT_LE(h.quantile(0.0), 0.01 * 1.05);
  EXPECT_NEAR(h.quantile(1.0), 1.0, 0.05);
}

TEST(LatencyHistogram, BelowMinClampsToFirstBucket) {
  // Counted in the first bucket, but reported quantiles clamp to the
  // actual maximum sample rather than the bucket's representative value.
  LatencyHistogram h(1e-3, 8);
  h.add(1e-9);
  EXPECT_EQ(h.totalCount(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e-9);
  // A second sample above min lands normally and dominates the quantile.
  h.add(2e-3);
  EXPECT_NEAR(h.quantile(1.0), 2e-3, 1e-12);
}

TEST(LatencyHistogram, RejectsBadArguments) {
  EXPECT_THROW(LatencyHistogram(0.0, 8), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram(1e-6, 0), std::invalid_argument);
}

}  // namespace
}  // namespace resex
