// Zipf-distributed sampling over {1..n} with exponent s >= 0.
//
// Uses Hörmann's rejection-inversion method: O(1) expected draws. The
// constructor makes one O(n) pass that fixes the probability() normalizer
// and tabulates the acceptance bound h(k+0.5) - k^-s of every rank, so a
// draw costs one inversion and a table read (8 bytes per rank); after that
// every method is const and safe to call concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace resex {

class ZipfSampler {
 public:
  /// n >= 1 elements; exponent >= 0 (0 = uniform). Throws on bad args.
  ZipfSampler(std::uint64_t n, double exponent);

  /// Draws a rank in [1, n]; rank 1 is the most popular.
  std::uint64_t sample(Rng& rng) const;

  std::uint64_t n() const noexcept { return n_; }
  double exponent() const noexcept { return s_; }

  /// P(rank) under the (normalized) Zipf law — for tests and analysis.
  double probability(std::uint64_t rank) const;

 private:
  double h(double x) const;
  double hInverse(double x) const;

  std::uint64_t n_;
  double s_;
  double hX1_;
  double hN_;
  double norm_;  // sum_{k=1..n} k^-s, computed once in the constructor
  std::vector<double> accept_;  // [k-1] = h(k+0.5) - k^-s
};

}  // namespace resex
