#include "core/objective.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace resex {

namespace {

/// Quantizes a float key to an integer bucket of the given width. Comparing
/// buckets (instead of `a < b - tol` bands) yields a genuine strict weak
/// order: values in the same bucket are equivalent everywhere, so chains of
/// "equal within tolerance" candidates can never cycle or leapfrog — the
/// tolerance-band scheme this replaces was non-transitive (a ~ b, b ~ c,
/// yet a < c), which let best-score tracking regress through noise chains.
long long bucketOf(double value, double width) noexcept {
  const double scaled = value / width;
  // Saturate instead of hitting llround's UB: migrated bytes divided by a
  // fine bucket width can approach the long long range.
  if (scaled >= 9.2e18) return std::numeric_limits<long long>::max();
  if (scaled <= -9.2e18) return std::numeric_limits<long long>::min();
  return std::llround(scaled);
}

}  // namespace

bool Score::betterThan(const Score& rhs, double tol) const noexcept {
  if (vacancyDeficit != rhs.vacancyDeficit) return vacancyDeficit < rhs.vacancyDeficit;
  const long long lb = bucketOf(bottleneckUtil, tol);
  const long long rb = bucketOf(rhs.bottleneckUtil, tol);
  if (lb != rb) return lb < rb;
  // The spread term is compared coarsely: a microscopic flattening gain
  // must not justify unbounded migration bytes on the next key.
  constexpr double kSpreadTol = 1e-4;
  const long long ls = bucketOf(meanSqUtil, kSpreadTol);
  const long long rs = bucketOf(rhs.meanSqUtil, kSpreadTol);
  if (ls != rs) return ls < rs;
  constexpr double kBytesTol = 1e-6;
  return bucketOf(migratedBytes, kBytesTol) < bucketOf(rhs.migratedBytes, kBytesTol);
}

std::string Score::toString() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{deficit=%zu bottleneck=%.4f meanSq=%.5f bytes=%.3g}",
                vacancyDeficit, bottleneckUtil, meanSqUtil, migratedBytes);
  return buf;
}

Score Objective::evaluate(const Assignment& assignment) const noexcept {
  Score score;
  const std::size_t vacant = assignment.vacantCount();
  score.vacancyDeficit = vacant >= vacancyTarget_ ? 0 : vacancyTarget_ - vacant;
  score.bottleneckUtil = assignment.bottleneckUtilization();
  score.meanSqUtil = assignment.sumSquaredUtil() /
                     static_cast<double>(assignment.instance().machineCount());
  score.migratedBytes = assignment.migratedBytes();
  return score;
}

Objective Objective::forInstance(const Instance& instance, double spreadWeight,
                                 double bytesWeight) {
  double totalBytes = 0.0;
  for (const Shard& s : instance.shards()) totalBytes += s.moveBytes;
  return Objective(instance.vacancyTarget(), spreadWeight, bytesWeight, totalBytes);
}

double Objective::scalarize(const Score& score) const noexcept {
  const double bytesTerm =
      bytesNormalizer_ > 0.0
          ? bytesWeight_ * score.migratedBytes / bytesNormalizer_
          : 0.0;
  return 10.0 * static_cast<double>(score.vacancyDeficit) + score.bottleneckUtil +
         spreadWeight_ * score.meanSqUtil + bytesTerm;
}

}  // namespace resex
