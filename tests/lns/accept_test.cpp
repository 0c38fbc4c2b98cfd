#include "lns/accept.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace resex {
namespace {

TEST(Annealing, AlwaysAcceptsImprovement) {
  SimulatedAnnealingAcceptance sa(0.001, 0.99);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(sa.accept(0.5, 0.9, rng));
}

TEST(Annealing, HotTemperatureAcceptsWorsening) {
  SimulatedAnnealingAcceptance sa(100.0, 1.0);
  Rng rng(3);
  int accepted = 0;
  for (int i = 0; i < 1000; ++i)
    if (sa.accept(0.61, 0.6, rng)) ++accepted;
  EXPECT_GT(accepted, 950);  // exp(-0.01/100) ~ 1
}

TEST(Annealing, ColdTemperatureRejectsWorsening) {
  SimulatedAnnealingAcceptance sa(1e-6, 1.0);
  Rng rng(4);
  int accepted = 0;
  for (int i = 0; i < 1000; ++i)
    if (sa.accept(0.7, 0.6, rng)) ++accepted;
  EXPECT_LT(accepted, 5);
}

TEST(Annealing, CoolingReducesTemperature) {
  SimulatedAnnealingAcceptance sa(1.0, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(sa.temperature(), 1.0);
  sa.onIteration();
  EXPECT_DOUBLE_EQ(sa.temperature(), 0.5);
  sa.onIteration();
  EXPECT_DOUBLE_EQ(sa.temperature(), 0.25);
}

TEST(Annealing, TemperatureFlooredAtMin) {
  SimulatedAnnealingAcceptance sa(1.0, 0.001, 0.1);
  for (int i = 0; i < 50; ++i) sa.onIteration();
  EXPECT_DOUBLE_EQ(sa.temperature(), 0.1);
}

TEST(Annealing, ForHorizonReachesLowTempByEnd) {
  SimulatedAnnealingAcceptance sa = SimulatedAnnealingAcceptance::forHorizon(0.1, 1000);
  EXPECT_NEAR(sa.temperature(), 0.1, 1e-9);
  for (int i = 0; i < 1000; ++i) sa.onIteration();
  EXPECT_LT(sa.temperature(), 1e-8);
}

TEST(Annealing, AcceptanceProbabilityFollowsBoltzmann) {
  // T = delta: acceptance probability should be near exp(-1) ~ 0.368.
  SimulatedAnnealingAcceptance sa(0.1, 1.0);
  Rng rng(5);
  int accepted = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (sa.accept(0.7, 0.6, rng)) ++accepted;
  EXPECT_NEAR(static_cast<double>(accepted) / n, std::exp(-1.0), 0.02);
}

}  // namespace
}  // namespace resex
