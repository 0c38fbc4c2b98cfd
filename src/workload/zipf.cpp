#include "workload/zipf.hpp"

#include <cmath>
#include <stdexcept>

namespace resex {

ZipfSampler::ZipfSampler(std::uint64_t n, double exponent) : n_(n), s_(exponent) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be >= 1");
  if (exponent < 0.0) throw std::invalid_argument("ZipfSampler: exponent must be >= 0");
  hX1_ = h(1.5) - 1.0;
  hN_ = h(static_cast<double>(n_) + 0.5);
  // Eager normalizer so probability() is a pure read — a lazy computation
  // here raced when const samplers were shared across serving threads.
  norm_ = 0.0;
  accept_.resize(n_);
  for (std::uint64_t k = 1; k <= n_; ++k) {
    const double kd = static_cast<double>(k);
    const double mass = std::pow(kd, -s_);
    norm_ += mass;
    accept_[k - 1] = h(kd + 0.5) - mass;
  }
}

// h(x) = integral of x^-s: (x^(1-s) - 1)/(1-s), with the s == 1 limit ln(x).
double ZipfSampler::h(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::hInverse(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  if (n_ == 1) return 1;
  if (s_ == 0.0) return 1 + rng.below(n_);
  for (;;) {
    const double u = hX1_ + rng.uniform() * (hN_ - hX1_);
    const double x = hInverse(u);
    const auto k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1 || k > n_) continue;
    // Accept with probability proportional to the true mass at k relative
    // to the dominating envelope.
    if (u >= accept_[k - 1]) return k;
  }
}

double ZipfSampler::probability(std::uint64_t rank) const {
  if (rank < 1 || rank > n_) return 0.0;
  return std::pow(static_cast<double>(rank), -s_) / norm_;
}

}  // namespace resex
