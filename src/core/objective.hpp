// The RESEX objective: feasibility-first lexicographic score.
//
// Order of comparison:
//   1. vacancy deficit   — max(0, k - vacant machines): the compensation
//      constraint; solutions with deficit 0 are the feasible region.
//   2. bottleneck utilization Λ — the load-balance target.
//   3. mean-square utilization  — spreads load below the bottleneck.
//   4. migration bytes          — do not move more than needed.
//
// A scalarization is also provided for simulated-annealing acceptance,
// where strict lexicographic comparison is too brittle.
#pragma once

#include <compare>
#include <cstddef>
#include <string>

#include "cluster/assignment.hpp"

namespace resex {

struct Score {
  std::size_t vacancyDeficit = 0;
  double bottleneckUtil = 0.0;
  double meanSqUtil = 0.0;
  double migratedBytes = 0.0;

  /// Epsilon-lexicographic comparison with a single canonical ordering:
  /// each float key is quantized to integer buckets (width `tol` for the
  /// bottleneck, 1e-4 for the spread term, 1e-6 for bytes) and the bucket
  /// tuples compare lexicographically. Quantization — unlike tolerance
  /// bands — is transitive (a strict weak order), so best-score tracking
  /// can never regress through a chain of within-tolerance candidates.
  bool betterThan(const Score& rhs, double tol = 1e-9) const noexcept;

  std::string toString() const;
};

class Objective {
 public:
  /// `vacancyTarget` = required vacant machines at the end.
  /// `spreadWeight` scales the mean-square term in the scalarization.
  /// `bytesWeight` scales the *fraction of total cluster bytes moved*
  /// (migratedBytes / bytesNormalizer) — pass the instance's total shard
  /// bytes as `bytesNormalizer`; 0 removes bytes from the scalarization
  /// entirely (they still break lexicographic ties).
  explicit Objective(std::size_t vacancyTarget, double spreadWeight = 0.1,
                     double bytesWeight = 0.05, double bytesNormalizer = 0.0)
      : vacancyTarget_(vacancyTarget), spreadWeight_(spreadWeight),
        bytesWeight_(bytesWeight), bytesNormalizer_(bytesNormalizer) {}

  /// The standard objective for an instance: vacancy target and byte
  /// normalizer taken from the instance itself.
  static Objective forInstance(const Instance& instance, double spreadWeight = 0.1,
                               double bytesWeight = 0.05);

  std::size_t vacancyTarget() const noexcept { return vacancyTarget_; }

  Score evaluate(const Assignment& assignment) const noexcept;

  /// Scalar value for annealing acceptance: smaller is better. The vacancy
  /// deficit enters as a large penalty so the search is pulled back toward
  /// the feasible region but may pass through infeasible states.
  double scalarize(const Score& score) const noexcept;
  double scalarize(const Assignment& assignment) const noexcept {
    return scalarize(evaluate(assignment));
  }

 private:
  std::size_t vacancyTarget_;
  double spreadWeight_;
  double bytesWeight_;
  double bytesNormalizer_;
};

}  // namespace resex
