#include "workload/zipf.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

namespace resex {
namespace {

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(Zipf, SingleElementAlwaysOne) {
  ZipfSampler z(1, 1.2);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(rng), 1u);
}

TEST(Zipf, SamplesStayInRange) {
  ZipfSampler z(1000, 1.1);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const auto k = z.sample(rng);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 1000u);
  }
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(rng) - 1];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Zipf, EmpiricalFrequenciesMatchTheory) {
  const double s = 1.2;
  ZipfSampler z(50, s);
  Rng rng(5);
  std::vector<double> counts(50, 0.0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) counts[z.sample(rng) - 1] += 1.0;
  // Check the head ranks against the exact probabilities.
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const double expected = z.probability(k) * n;
    EXPECT_NEAR(counts[k - 1], expected, expected * 0.05)
        << "rank " << k;
  }
}

TEST(Zipf, ExponentOneSpecialCase) {
  ZipfSampler z(100, 1.0);
  Rng rng(7);
  std::vector<double> counts(100, 0.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[z.sample(rng) - 1] += 1.0;
  // P(1)/P(2) should be ~2 under s = 1.
  EXPECT_NEAR(counts[0] / counts[1], 2.0, 0.15);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfSampler z(200, 0.9);
  double total = 0.0;
  for (std::uint64_t k = 1; k <= 200; ++k) total += z.probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ProbabilityOutOfRangeIsZero) {
  ZipfSampler z(10, 1.0);
  EXPECT_EQ(z.probability(0), 0.0);
  EXPECT_EQ(z.probability(11), 0.0);
}

TEST(Zipf, RankOneIsModalForPositiveExponent) {
  ZipfSampler z(1000, 0.8);
  Rng rng(11);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.sample(rng) - 1];
  for (std::size_t k = 1; k < 20; ++k) EXPECT_GE(counts[0], counts[k]);
}

TEST(Zipf, DeterministicGivenSeed) {
  ZipfSampler z(500, 1.1);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(a), z.sample(b));
}

TEST(Zipf, FixedSeedDrawsArePinned) {
  // Corpora, query pools and benchmark workloads are all Zipf draws: a
  // change to the sampler's arithmetic must not move a single draw. The
  // hashes pin 100,000 draws per exponent (1.0 takes the logarithmic
  // branch of h) at fixed seeds.
  const auto drawHash = [](std::uint64_t n, double exponent, std::uint64_t seed) {
    const ZipfSampler z(n, exponent);
    Rng rng(seed);
    std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a over the ranks
    for (int i = 0; i < 100000; ++i) {
      hash ^= z.sample(rng);
      hash *= 1099511628211ULL;
    }
    return hash;
  };
  EXPECT_EQ(drawHash(6000, 1.05, 1), 4017125231761351188ULL);
  EXPECT_EQ(drawHash(5980, 0.9, 2), 6280496211989453481ULL);
  EXPECT_EQ(drawHash(1000, 1.0, 3), 17837891102517116830ULL);
  EXPECT_EQ(drawHash(50, 2.5, 4), 12577871161678179779ULL);
}

TEST(Zipf, ProbabilityIsSafeToCallConcurrently) {
  // Regression: probability() used to lazily initialise its normalizer
  // through a const_cast on first call — a data race when several serving
  // threads share one sampler. The normalizer is now fixed in the
  // constructor, so concurrent const calls are read-only (ThreadSanitizer
  // verifies the absence of the race; this test pins the values too).
  // The very first probability() calls must come from concurrent threads —
  // a warm-up call from this thread would hide the lazy-init race.
  const ZipfSampler z(300, 0.9);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        double total = 0.0;
        for (std::uint64_t k = 1; k <= 10; ++k) total += z.probability(k);
        if (!(total > 0.0) || total > 1.0)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // And the values agree with a fresh, sequentially-used sampler.
  const ZipfSampler reference(300, 0.9);
  EXPECT_DOUBLE_EQ(z.probability(1), reference.probability(1));
}

}  // namespace
}  // namespace resex
