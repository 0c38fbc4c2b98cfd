// HDR-style log-bucketed histogram for latency reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resex {

/// Log-bucketed histogram for latency-like positive values: constant
/// relative error (~ +/- 2^(1/subBuckets)), O(1) insert, quantiles without
/// retaining samples. Values below `minValue` clamp to the first bucket.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double minValue = 1e-6, int subBucketsPerOctave = 8);

  void add(double x) noexcept;
  /// Adds `other`'s samples into this histogram. Both must share minValue
  /// and subBuckets (bucket edges line up); mismatches throw.
  void merge(const LatencyHistogram& other);
  /// Forgets every sample; bucket geometry is retained and the backing
  /// storage keeps its capacity (window rotation reuses buckets in place).
  void reset() noexcept;
  std::size_t totalCount() const noexcept { return total_; }
  /// Quantile q in [0,1]; returns the representative value of the bucket
  /// containing the q-th sample, clamped to maxSeen() so a reported
  /// quantile never exceeds the largest observed sample; q == 1 returns
  /// maxSeen() exactly. Empty histogram returns 0.
  double quantile(double q) const noexcept;
  double maxSeen() const noexcept { return maxSeen_; }
  double sum() const noexcept { return sum_; }
  double meanValue() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }

 private:
  std::size_t bucketFor(double x) const noexcept;
  double bucketValue(std::size_t bucket) const noexcept;

  double minValue_;
  int subBuckets_;
  double logBase_;  // log of the per-bucket growth ratio
  std::vector<std::uint64_t> counts_;
  std::size_t total_ = 0;
  double maxSeen_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace resex
