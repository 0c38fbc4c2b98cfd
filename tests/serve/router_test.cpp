#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace resex::serve {
namespace {

TEST(Router, SingleCandidateAlwaysChosen) {
  Rng rng(1);
  const std::vector<std::size_t> depths{42};
  for (int i = 0; i < 20; ++i) EXPECT_EQ(chooseReplica(depths, rng), 0u);
}

// Regression: power-of-two-choices must sample two *distinct* replicas.
// With replacement, the two draws collide with probability 1/2 here and the
// overloaded machine would be chosen regularly; with distinct draws the
// idle replica of a two-replica group wins every single time.
TEST(Router, PowerOfTwoOnTwoReplicasAlwaysPicksIdle) {
  Rng rng(4);
  const std::vector<std::size_t> depths{7, 0};
  for (int i = 0; i < 500; ++i) EXPECT_EQ(chooseReplica(depths, rng), 1u);
}

TEST(Router, PowerOfTwoNeverPicksWorstOfThree) {
  // Distinct draws mean the unique maximum can only win against a copy of
  // itself, which distinct sampling rules out whenever it is drawn with a
  // strictly shorter peer.
  Rng rng(5);
  const std::vector<std::size_t> depths{2, 8, 2};
  int worst = 0;
  for (int i = 0; i < 500; ++i) worst += chooseReplica(depths, rng) == 1u;
  EXPECT_EQ(worst, 0);
}

}  // namespace
}  // namespace resex::serve
