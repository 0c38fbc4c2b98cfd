#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resex {

LatencyHistogram::LatencyHistogram(double minValue, int subBucketsPerOctave)
    : minValue_(minValue), subBuckets_(subBucketsPerOctave),
      logBase_(std::log(2.0) / subBucketsPerOctave) {
  if (minValue <= 0.0) throw std::invalid_argument("LatencyHistogram: minValue must be > 0");
  if (subBucketsPerOctave <= 0)
    throw std::invalid_argument("LatencyHistogram: subBuckets must be > 0");
}

std::size_t LatencyHistogram::bucketFor(double x) const noexcept {
  if (x <= minValue_) return 0;
  return static_cast<std::size_t>(std::log(x / minValue_) / logBase_) + 1;
}

double LatencyHistogram::bucketValue(std::size_t bucket) const noexcept {
  if (bucket == 0) return minValue_;
  // Midpoint (geometric) of the bucket's range.
  return minValue_ * std::exp((static_cast<double>(bucket) - 0.5) * logBase_);
}

void LatencyHistogram::add(double x) noexcept {
  const std::size_t b = bucketFor(x);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++total_;
  sum_ += x;
  maxSeen_ = std::max(maxSeen_, x);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.minValue_ != minValue_ || other.subBuckets_ != subBuckets_)
    throw std::invalid_argument("LatencyHistogram::merge: bucket geometry differs");
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t b = 0; b < other.counts_.size(); ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
  sum_ += other.sum_;
  maxSeen_ = std::max(maxSeen_, other.maxSeen_);
}

void LatencyHistogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  maxSeen_ = 0.0;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return maxSeen_;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    // The geometric midpoint of the last occupied bucket can exceed the
    // largest sample actually observed; never report beyond maxSeen_.
    if (seen > target) return std::min(bucketValue(b), maxSeen_);
  }
  return maxSeen_;
}

}  // namespace resex
