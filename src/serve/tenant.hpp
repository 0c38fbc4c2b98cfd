// Tenants: query classes with weights, guarantees, and burst limits, plus
// the token bank that turns those entitlements into admission decisions.
//
// The exchange model balances *machines*; tenants balance *workloads*. A
// Tenant is one query class ("interactive", "batch-scan", one product
// surface, ...) with
//
//   * a fair-share `weight` — its claim on contended dispatch capacity,
//     enforced by the FairShareQueue ordering (see fair_share.hpp);
//   * a `guaranteedShare` — the fraction of the cluster's execution-slot
//     tokens reserved for it, admission-protected against every burst;
//   * a `burstLimit` — how far past its weighted share it may reach into
//     *unreserved* headroom when the cluster has slack;
//   * an SLO class — its own SloWindow with its own objective.
//
// Token model (per "Dynamic Load Balancing with Tokens", Comte 2018, on
// the balanced-fairness foundation of Bonald & Comte 2018): each machine
// holds a fixed number of tokens representing execution slots (worker
// threads plus a queueing allowance). A query needs one token per
// partition task; tokens are acquired greedily — each task binds to the
// hosting replica whose machine has the most free tokens, the
// least-loaded/token dispatch whose stationary behaviour approximates
// insensitive balanced fairness — and are returned when the worker
// finishes (or sheds) the task. Admission is all-or-nothing per query:
//
//   1. cap check      — held + need must stay within the tenant's cap
//                       (max of its guarantee and burstLimit x weighted
//                       share of all tokens);
//   2. reserve check  — above its guarantee, a tenant may only consume
//                       headroom no other tenant's guarantee has a claim
//                       on (free tokens minus others' unused reserves);
//   3. binding        — every partition must find a host machine with a
//                       free token, else the acquisition rolls back.
//
// A tenant over its share is therefore throttled *at admission* — the
// rejection is immediate and cheap — instead of poisoning the shared
// per-machine queues and being shed worker-side after burning a slot. A
// query short of free slots may wait for a release instead (backpressure).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/types.hpp"
#include "obs/slo.hpp"

namespace resex::serve {

using TenantId = std::uint32_t;

struct TenantSpec {
  std::string name;
  /// Fair-share weight within its pool; > 0.
  double weight = 1.0;
  /// Fraction of all tokens reserved for this tenant, in [0, 1]; the sum
  /// over tenants must stay <= 1. Admission within the guarantee can only
  /// fail on physical slot exhaustion, never on another tenant's burst.
  double guaranteedShare = 0.0;
  /// Cap multiplier over the tenant's weighted token share; >= 0. The
  /// effective cap is max(guarantee, burstLimit x weightShare) of all
  /// tokens, so 0 pins the tenant to its guarantee.
  double burstLimit = 1.0;
  /// Fair-share tree pool this tenant schedules under; empty = a pool of
  /// its own directly under the root.
  std::string pool;
  /// SLO class name; empty defaults to "tenant.<name>". Each distinct
  /// class registers its own SloWindow with `slo` (distinct objectives per
  /// tenant are the point — see SloRegistry::window's mismatch contract).
  std::string sloClass;
  obs::SloConfig slo;
};

/// The static shape of the hierarchical fair-share tree: root -> pools ->
/// tenants. Pool weight is the sum of its members' weights (a pool's claim
/// grows with the classes it shelters, the ytsaurus fair-share convention
/// for implicit pools).
struct FairShareTreeSpec {
  struct Pool {
    std::string name;
    double weight = 0.0;
  };
  struct Tenant {
    double weight = 1.0;
    std::uint32_t pool = 0;
  };
  std::vector<Pool> pools;
  std::vector<Tenant> tenants;
};

/// Validated, immutable tenant table. Ids are dense indexes in
/// registration order; references stay valid for the registry's lifetime.
class TenantRegistry {
 public:
  TenantRegistry() = default;
  /// Validates and indexes `specs`: unique non-empty names, positive
  /// finite weights, guarantees in [0,1] summing to <= 1, burst limits
  /// >= 0. Throws std::invalid_argument on violation.
  explicit TenantRegistry(std::vector<TenantSpec> specs);

  std::size_t count() const noexcept { return specs_.size(); }
  const TenantSpec& spec(TenantId id) const { return specs_.at(id); }
  std::optional<TenantId> idOf(std::string_view name) const noexcept;
  /// The registered SLO class name (spec.sloClass or its default).
  const std::string& sloClassOf(TenantId id) const { return sloClasses_.at(id); }

  const FairShareTreeSpec& tree() const noexcept { return tree_; }

  /// weight_t / sum of all weights.
  double weightShare(TenantId id) const;
  /// Tokens reserved for `id` out of `totalTokens`.
  double entitledTokens(TenantId id, double totalTokens) const;
  /// Hard admission cap: max(entitlement, burstLimit x weighted share).
  double capTokens(TenantId id, double totalTokens) const;

 private:
  std::vector<TenantSpec> specs_;
  std::vector<std::string> sloClasses_;
  FairShareTreeSpec tree_;
  double totalWeight_ = 0.0;
};

enum class Admission {
  kAdmitted,
  /// The tenant's cap or another tenant's unused guarantee blocked it —
  /// the fair-share throttle working as intended.
  kRejectedOverShare,
  /// Every candidate machine's execution slots are token-exhausted (the
  /// cluster, or this query's replica set, is physically saturated).
  kRejectedNoToken,
};

const char* admissionName(Admission outcome) noexcept;

/// (machine, physical shard) — one hosting replica of a partition, the
/// element type of the broker's routing table.
using ReplicaHost = std::pair<MachineId, ShardId>;

/// Per-machine execution-slot tokens plus per-tenant holdings, with
/// atomic whole-query greedy acquisition. Thread-safe (one mutex: token
/// operations bracket real index scans, contention is noise).
class TokenBank {
 public:
  using Clock = std::chrono::steady_clock;

  /// `machineSlots[m]` tokens on machine m. Entitlements and caps are
  /// precomputed from `registry` against the summed total.
  TokenBank(std::vector<std::uint32_t> machineSlots,
            const TenantRegistry& registry);

  /// All-or-nothing acquisition of one token per partition for `tenant`:
  /// `hostsPerPartition[g]` lists the hosting replicas of partition g, and
  /// on admission `picks[g]` receives the index of the chosen replica —
  /// greedily the host whose machine has the most free tokens (ties to the
  /// lower machine id). On rejection `picks` is untouched and no tokens
  /// move.
  Admission acquire(TenantId tenant,
                    std::span<const std::vector<ReplicaHost>> hostsPerPartition,
                    std::vector<std::uint32_t>& picks);

  /// Returns the token a task acquired on `machine` for `tenant`.
  void release(TenantId tenant, MachineId machine);

  /// Count of release() calls; read before an acquire that may fail, so
  /// awaitRelease cannot miss a release landing in between.
  std::uint64_t releaseEpoch() const noexcept {
    return releases_.load(std::memory_order_acquire);
  }
  /// Blocks until a release() after `epoch` (true: retry the acquire).
  /// False — give up — at `deadline` (refused up front once passed), after
  /// close(), or at once when no token is held: an acquire that failed
  /// against an idle bank can never bind.
  bool awaitRelease(std::uint64_t epoch,
                    std::optional<Clock::time_point> deadline = std::nullopt);
  /// Wakes every waiter; later waits fail at once (shutdown).
  void close();

  std::uint64_t totalTokens() const noexcept { return totalTokens_; }
  std::uint64_t freeTokens() const;
  std::uint64_t freeOn(MachineId machine) const;
  std::uint64_t heldBy(TenantId tenant) const;
  double entitled(TenantId tenant) const { return entitled_.at(tenant); }
  double cap(TenantId tenant) const { return cap_.at(tenant); }

 private:
  mutable std::mutex mutex_;
  std::condition_variable released_;
  std::atomic<std::uint64_t> releases_{0};  ///< written under mutex_
  bool closed_ = false;
  std::vector<std::uint32_t> free_;       ///< per machine
  std::vector<std::uint64_t> held_;       ///< per tenant
  std::vector<double> entitled_;          ///< per tenant, in tokens
  std::vector<double> cap_;               ///< per tenant, in tokens
  std::uint64_t totalTokens_ = 0;
  std::uint64_t totalFree_ = 0;
};

}  // namespace resex::serve
