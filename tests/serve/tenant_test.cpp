#include "serve/tenant.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace resex::serve {
namespace {

TenantSpec spec(std::string name, double weight = 1.0, double guarantee = 0.0,
                double burst = 1.0) {
  TenantSpec s;
  s.name = std::move(name);
  s.weight = weight;
  s.guaranteedShare = guarantee;
  s.burstLimit = burst;
  return s;
}

TEST(TenantRegistry, ValidatesSpecs) {
  EXPECT_THROW(TenantRegistry(std::vector<TenantSpec>{}),
               std::invalid_argument);  // empty
  EXPECT_THROW(TenantRegistry({spec("")}), std::invalid_argument);  // no name
  EXPECT_THROW(TenantRegistry({spec("a", 0.0)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({spec("a", -1.0)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({spec("a", 1.0, 1.5)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({spec("a", 1.0, 0.0, -0.5)}), std::invalid_argument);
  EXPECT_THROW(TenantRegistry({spec("a"), spec("a")}), std::invalid_argument);
  // Guarantees summing past 1.0 would promise overlapping reserves.
  EXPECT_THROW(TenantRegistry({spec("a", 1.0, 0.7), spec("b", 1.0, 0.6)}),
               std::invalid_argument);
  // The boundary itself is legal.
  EXPECT_NO_THROW(TenantRegistry({spec("a", 1.0, 0.7), spec("b", 1.0, 0.3)}));
}

TEST(TenantRegistry, IdsAndSloClassDefaults) {
  TenantSpec custom = spec("batch");
  custom.sloClass = "bulk";
  const TenantRegistry registry({spec("interactive"), custom});
  EXPECT_EQ(registry.count(), 2u);
  EXPECT_EQ(registry.idOf("interactive"), std::optional<TenantId>(0));
  EXPECT_EQ(registry.idOf("batch"), std::optional<TenantId>(1));
  EXPECT_EQ(registry.idOf("nobody"), std::nullopt);
  EXPECT_EQ(registry.sloClassOf(0), "tenant.interactive");  // defaulted
  EXPECT_EQ(registry.sloClassOf(1), "bulk");                // explicit
}

TEST(TenantRegistry, TokenEntitlementMath) {
  const TenantRegistry registry(
      {spec("big", 3.0, 0.5, 1.0), spec("small", 1.0, 0.1, 2.0)});
  EXPECT_DOUBLE_EQ(registry.weightShare(0), 0.75);
  EXPECT_DOUBLE_EQ(registry.weightShare(1), 0.25);
  EXPECT_DOUBLE_EQ(registry.entitledTokens(0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(registry.entitledTokens(1, 100.0), 10.0);
  // Cap: max(guarantee, burstLimit x weighted share) of all tokens.
  EXPECT_DOUBLE_EQ(registry.capTokens(0, 100.0), 75.0);  // 1.0 * .75 * 100
  EXPECT_DOUBLE_EQ(registry.capTokens(1, 100.0), 50.0);  // 2.0 * .25 * 100
}

TEST(TokenBank, GreedyBindingPicksFreestMachine) {
  const TenantRegistry registry({spec("t", 1.0, 1.0)});
  TokenBank bank({3, 1}, registry);
  EXPECT_EQ(bank.totalTokens(), 4u);
  const std::vector<std::vector<ReplicaHost>> hosts = {{{0, 0}, {1, 1}}};
  std::vector<std::uint32_t> picks;
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(picks[0], 0u);  // machine 0 has 3 free vs 1
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(picks[0], 0u);  // still ahead, 2 vs 1
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(picks[0], 0u);  // tie at 1: first-listed host wins
  EXPECT_EQ(bank.freeOn(0), 0u);
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(picks[0], 1u);  // machine 0 exhausted
  EXPECT_EQ(bank.freeTokens(), 0u);
  EXPECT_EQ(bank.heldBy(0), 4u);
}

TEST(TokenBank, AcquisitionIsAllOrNothingWithRollback) {
  const TenantRegistry registry({spec("t", 1.0, 0.0, 4.0)});  // roomy cap
  TokenBank bank({2, 1}, registry);
  // Both partitions host only on machine 1, which has a single token: the
  // bank has room overall, but binding must fail on the second partition
  // and restore the token provisionally taken for the first.
  const std::vector<std::vector<ReplicaHost>> narrow = {{{1, 0}}, {{1, 1}}};
  std::vector<std::uint32_t> picks;
  EXPECT_EQ(bank.acquire(0, narrow, picks), Admission::kRejectedNoToken);
  EXPECT_EQ(bank.freeOn(1), 1u);
  EXPECT_EQ(bank.freeTokens(), 3u);
  EXPECT_EQ(bank.heldBy(0), 0u);
  // Bank-wide scarcity is also a no-token verdict, not over-share: hold
  // two of the three tokens, then ask for two more.
  const std::vector<std::vector<ReplicaHost>> spread = {{{0, 0}}, {{0, 1}}};
  ASSERT_EQ(bank.acquire(0, spread, picks), Admission::kAdmitted);
  EXPECT_EQ(bank.acquire(0, spread, picks), Admission::kRejectedNoToken);
  EXPECT_EQ(bank.heldBy(0), 2u);
  EXPECT_EQ(bank.freeTokens(), 1u);
}

TEST(TokenBank, CapPinsTenantToItsGuarantee) {
  // burstLimit 0 and no guarantee: cap 0, every acquisition over-share.
  const TenantRegistry registry({spec("capped", 1.0, 0.0, 0.0)});
  TokenBank bank({4}, registry);
  const std::vector<std::vector<ReplicaHost>> hosts = {{{0, 0}}};
  std::vector<std::uint32_t> picks;
  EXPECT_EQ(bank.acquire(0, hosts, picks), Admission::kRejectedOverShare);
  EXPECT_EQ(bank.freeTokens(), 4u);  // nothing moved
}

TEST(TokenBank, BurstLaneCannotInvadeUnusedGuarantees) {
  // A reserves half the 4 tokens; B has no guarantee but a generous cap.
  // B may burst only into the 2 tokens A's idle guarantee leaves unclaimed.
  const TenantRegistry registry(
      {spec("a", 1.0, 0.5, 1.0), spec("b", 1.0, 0.0, 4.0)});
  TokenBank bank({4}, registry);
  const std::vector<std::vector<ReplicaHost>> hosts = {{{0, 0}}};
  std::vector<std::uint32_t> picks;
  ASSERT_EQ(bank.acquire(1, hosts, picks), Admission::kAdmitted);
  ASSERT_EQ(bank.acquire(1, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(bank.acquire(1, hosts, picks), Admission::kRejectedOverShare);
  EXPECT_EQ(bank.heldBy(1), 2u);
  // A's guaranteed lane is untouched by B's burst: both reserved tokens
  // admit, and only physical exhaustion could have stopped them.
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(bank.freeTokens(), 0u);
  // Releases reopen the burst lane.
  bank.release(0, 0);
  bank.release(0, 0);
  EXPECT_EQ(bank.acquire(1, hosts, picks), Admission::kRejectedOverShare);
  bank.release(1, 0);
  ASSERT_EQ(bank.acquire(1, hosts, picks), Admission::kAdmitted);
}

TEST(TokenBank, WholeBankCapIsNeverOverShare) {
  // The implicit tenant's spec: guarantee and cap are every token, so a
  // dry bank is scarcity (no-token), never a share verdict.
  const TenantRegistry registry({spec("default", 1.0, 1.0, 1.0)});
  TokenBank bank({2}, registry);
  const std::vector<std::vector<ReplicaHost>> hosts = {{{0, 0}}, {{0, 1}}};
  std::vector<std::uint32_t> picks;
  ASSERT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted);
  EXPECT_EQ(bank.acquire(0, hosts, picks), Admission::kRejectedNoToken);
}

/// A one-token bank with its token held, so every acquire is no-token.
struct DryBank {
  TenantRegistry registry{{spec("t", 1.0, 1.0)}};
  TokenBank bank{{1}, registry};
  std::vector<std::vector<ReplicaHost>> hosts = {{{0, 0}}};
  std::vector<std::uint32_t> picks;
  DryBank() { EXPECT_EQ(bank.acquire(0, hosts, picks), Admission::kAdmitted); }
};

TEST(TokenBank, AwaitRefusesAnAlreadyExpiredDeadline) {
  DryBank dry;
  const std::uint64_t epoch = dry.bank.releaseEpoch();
  dry.bank.release(0, 0);  // a slot is free again...
  // ...but the deadline is gone: waiting is refused up front rather than
  // admitting work the worker is guaranteed to shed.
  const auto past = TokenBank::Clock::now() - std::chrono::milliseconds(1);
  EXPECT_FALSE(dry.bank.awaitRelease(epoch, past));
  const auto future = TokenBank::Clock::now() + std::chrono::seconds(5);
  EXPECT_TRUE(dry.bank.awaitRelease(epoch, future));  // release already seen
}

TEST(TokenBank, AwaitTimesOutAtTheDeadline) {
  DryBank dry;
  const std::uint64_t epoch = dry.bank.releaseEpoch();
  ASSERT_EQ(dry.bank.acquire(0, dry.hosts, dry.picks), Admission::kRejectedNoToken);
  const auto start = TokenBank::Clock::now();
  EXPECT_FALSE(dry.bank.awaitRelease(epoch, start + std::chrono::milliseconds(30)));
  EXPECT_GE(TokenBank::Clock::now() - start, std::chrono::milliseconds(25));
  EXPECT_EQ(dry.bank.freeTokens(), 0u);
}

TEST(TokenBank, BlockedAcquireWakesOnRelease) {
  DryBank dry;
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    std::vector<std::uint32_t> picks;
    for (;;) {
      const std::uint64_t epoch = dry.bank.releaseEpoch();
      if (dry.bank.acquire(0, dry.hosts, picks) == Admission::kAdmitted) break;
      ASSERT_TRUE(dry.bank.awaitRelease(epoch));
    }
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());  // backpressured on the dry bank
  dry.bank.release(0, 0);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(dry.bank.heldBy(0), 1u);
}

TEST(TokenBank, CloseWakesWaiters) {
  DryBank dry;
  std::thread waiter([&] {
    EXPECT_FALSE(dry.bank.awaitRelease(dry.bank.releaseEpoch()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  dry.bank.close();
  waiter.join();
  EXPECT_FALSE(dry.bank.awaitRelease(dry.bank.releaseEpoch()));  // stays closed
}

TEST(TokenBank, AwaitGivesUpWhenNothingIsHeld) {
  // Two partitions pinned to a one-token machine can never bind; with no
  // token held anywhere no release will come, so the wait ends at once.
  const TenantRegistry registry({spec("t", 1.0, 1.0)});
  TokenBank bank({1}, registry);
  const std::vector<std::vector<ReplicaHost>> narrow = {{{0, 0}}, {{0, 1}}};
  std::vector<std::uint32_t> picks;
  const std::uint64_t epoch = bank.releaseEpoch();
  ASSERT_EQ(bank.acquire(0, narrow, picks), Admission::kRejectedNoToken);
  EXPECT_FALSE(bank.awaitRelease(epoch));
}

TEST(TokenBank, AdmissionNames) {
  EXPECT_STREQ(admissionName(Admission::kAdmitted), "admitted");
  EXPECT_STREQ(admissionName(Admission::kRejectedOverShare),
               "rejected_over_share");
  EXPECT_STREQ(admissionName(Admission::kRejectedNoToken), "rejected_no_token");
}

}  // namespace
}  // namespace resex::serve
