#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/test_instances.hpp"
#include "util/rng.hpp"

namespace resex {
namespace {

using testing::placedInstance;
using testing::uniformInstance;

TEST(Score, LexicographicOrder) {
  Score a{0, 0.5, 0.1, 100.0};
  Score b{0, 0.6, 0.0, 0.0};
  EXPECT_TRUE(a.betterThan(b));
  EXPECT_FALSE(b.betterThan(a));
}

TEST(Score, VacancyDeficitDominatesEverything) {
  Score feasible{0, 0.99, 9.0, 1e12};
  Score infeasible{1, 0.1, 0.0, 0.0};
  EXPECT_TRUE(feasible.betterThan(infeasible));
  EXPECT_FALSE(infeasible.betterThan(feasible));
}

TEST(Score, TieOnBottleneckFallsToSpread) {
  Score a{0, 0.5, 0.1, 50.0};
  Score b{0, 0.5, 0.2, 10.0};
  EXPECT_TRUE(a.betterThan(b));
}

TEST(Score, TieOnSpreadFallsToBytes) {
  Score a{0, 0.5, 0.1, 10.0};
  Score b{0, 0.5, 0.1, 50.0};
  EXPECT_TRUE(a.betterThan(b));
  EXPECT_FALSE(b.betterThan(a));
}

TEST(Score, EqualScoresAreNotBetter) {
  Score a{0, 0.5, 0.1, 10.0};
  EXPECT_FALSE(a.betterThan(a));
}

TEST(Score, ToleranceAbsorbsNoise) {
  Score a{0, 0.5, 0.1, 10.0};
  Score b{0, 0.5 + 1e-12, 0.1, 10.0};
  EXPECT_FALSE(a.betterThan(b));
  EXPECT_FALSE(b.betterThan(a));
}

TEST(Score, ToStringMentionsFields) {
  Score s{1, 0.5, 0.2, 3.0};
  const std::string text = s.toString();
  EXPECT_NE(text.find("deficit=1"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
}

// -- Strict-weak-order properties of the quantized comparison --------------
//
// The previous tolerance-band implementation was non-transitive: a ~ b and
// b ~ c (each within tol) while a < c, which let best-score tracking walk
// downhill through a chain of "equal within tolerance" candidates. The
// quantized comparison must behave as a single canonical strict weak order.

Score randomScore(Rng& rng) {
  Score s;
  s.vacancyDeficit = rng.below(3);
  // Cluster values around bucket edges so equal-bucket and adjacent-bucket
  // pairs are both common.
  s.bottleneckUtil = 0.5 + static_cast<double>(rng.below(6)) * 1e-9 * 0.4;
  s.meanSqUtil = 0.25 + static_cast<double>(rng.below(6)) * 1e-4 * 0.4;
  s.migratedBytes = static_cast<double>(rng.below(4)) * 1e-6 * 0.4;
  return s;
}

TEST(Score, ComparisonIsIrreflexiveAndAsymmetric) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const Score a = randomScore(rng);
    const Score b = randomScore(rng);
    EXPECT_FALSE(a.betterThan(a));
    if (a.betterThan(b)) {
      EXPECT_FALSE(b.betterThan(a));
    }
  }
}

TEST(Score, ComparisonIsTransitive) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const Score a = randomScore(rng);
    const Score b = randomScore(rng);
    const Score c = randomScore(rng);
    if (a.betterThan(b) && b.betterThan(c)) {
      EXPECT_TRUE(a.betterThan(c));
    }
    // Equivalence ("neither better") must be transitive too — this is the
    // property tolerance bands break.
    const bool abEq = !a.betterThan(b) && !b.betterThan(a);
    const bool bcEq = !b.betterThan(c) && !c.betterThan(b);
    if (abEq && bcEq) {
      EXPECT_FALSE(a.betterThan(c));
      EXPECT_FALSE(c.betterThan(a));
    }
  }
}

TEST(Score, BestTrackingNeverRegressesThroughNoiseChains) {
  // Feed best-score tracking (keep `best` iff candidate.betterThan(best))
  // a long chain of candidates that differ by sub-tolerance noise, with
  // occasional real improvements. The tracked best must never end up worse
  // than any candidate it once rejected or adopted.
  Rng rng(44);
  Score best{0, 0.9, 0.5, 100.0};
  std::vector<Score> adopted{best};
  Score truth = best;  // noise-free shadow of the real best
  double realBottleneck = 0.9;
  for (int i = 0; i < 50000; ++i) {
    Score cand = truth;
    if (rng.chance(0.02)) {
      realBottleneck -= 1e-4;  // genuine improvement, well above tol
      truth.bottleneckUtil = realBottleneck;
      cand = truth;
    }
    // Sub-tolerance jitter, the incremental-update noise this guards.
    cand.bottleneckUtil += (rng.uniform() - 0.5) * 1e-10;
    cand.meanSqUtil += (rng.uniform() - 0.5) * 1e-6;
    if (cand.betterThan(best)) {
      best = cand;
      adopted.push_back(cand);
    }
  }
  // Every adoption must have strictly improved on ALL previous adoptions
  // (transitivity guarantees this; bands did not).
  for (std::size_t i = 1; i < adopted.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_FALSE(adopted[j].betterThan(adopted[i]))
          << "adoption " << i << " regressed vs earlier adoption " << j;
  // And the final best must reflect the genuine improvements.
  EXPECT_NEAR(best.bottleneckUtil, realBottleneck, 1e-6);
}

TEST(Objective, EvaluateInitialState) {
  const Instance inst = uniformInstance(2, 1, {40.0, 20.0});
  const Objective obj(inst.exchangeCount());
  Assignment a(inst);
  const Score s = obj.evaluate(a);
  EXPECT_EQ(s.vacancyDeficit, 0u);  // exchange machine is vacant
  EXPECT_DOUBLE_EQ(s.bottleneckUtil, 0.4);
  EXPECT_DOUBLE_EQ(s.migratedBytes, 0.0);
  EXPECT_NEAR(s.meanSqUtil, (0.16 + 0.04) / 3.0, 1e-12);
}

TEST(Objective, DeficitAppearsWhenVacancyConsumed) {
  const Instance inst = placedInstance(2, 1, {40.0, 20.0, 10.0}, {0, 1, 0});
  const Objective obj(inst.exchangeCount());
  Assignment a(inst);
  a.moveShard(2, 2);  // occupy the exchange machine; all three machines busy
  const Score s = obj.evaluate(a);
  EXPECT_EQ(s.vacancyDeficit, 1u);
}

TEST(Objective, DeficitClearedByDrainingRegularMachine) {
  const Instance inst = placedInstance(2, 1, {40.0, 20.0, 10.0}, {0, 1, 0});
  const Objective obj(inst.exchangeCount());
  Assignment a(inst);
  a.moveShard(2, 2);
  a.moveShard(1, 2);  // machine 1 drained: one vacancy restored
  const Score s = obj.evaluate(a);
  EXPECT_EQ(s.vacancyDeficit, 0u);
}

TEST(Objective, ScalarizePenalizesDeficitHeavily) {
  const Objective obj(1);
  Score feasible{0, 0.9, 0.5, 0.0};
  Score infeasible{1, 0.1, 0.0, 0.0};
  EXPECT_LT(obj.scalarize(feasible), obj.scalarize(infeasible));
}

TEST(Objective, ScalarizeMonotoneInBottleneck) {
  const Objective obj(0);
  Score lo{0, 0.4, 0.1, 10.0};
  Score hi{0, 0.6, 0.1, 10.0};
  EXPECT_LT(obj.scalarize(lo), obj.scalarize(hi));
}

TEST(Objective, BytesWeightBreaksTiesOnlyGently) {
  // Normalizer 1e9 total bytes, weight 0.05.
  const Objective obj(0, 0.1, 0.05, 1e9);
  Score cheap{0, 0.5, 0.1, 0.0};
  Score pricey{0, 0.5, 0.1, 1e9};
  EXPECT_LT(obj.scalarize(cheap), obj.scalarize(pricey));
  // Moving the whole cluster costs exactly bytesWeight in scalar terms,
  // so a meaningful bottleneck improvement always dominates.
  Score better{0, 0.4, 0.1, 1e9};
  EXPECT_LT(obj.scalarize(better), obj.scalarize(cheap));
}

TEST(Objective, ZeroNormalizerRemovesBytesFromScalar) {
  const Objective obj(0);
  Score cheap{0, 0.5, 0.1, 0.0};
  Score pricey{0, 0.5, 0.1, 1e12};
  EXPECT_DOUBLE_EQ(obj.scalarize(cheap), obj.scalarize(pricey));
  // Lexicographic comparison still prefers fewer bytes.
  EXPECT_TRUE(cheap.betterThan(pricey));
}

}  // namespace
}  // namespace resex
