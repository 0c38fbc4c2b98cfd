#include "serve/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resex::serve {

TenantRegistry::TenantRegistry(std::vector<TenantSpec> specs)
    : specs_(std::move(specs)) {
  if (specs_.empty())
    throw std::invalid_argument("TenantRegistry: at least one tenant required");
  double guaranteeSum = 0.0;
  for (const TenantSpec& spec : specs_) {
    if (spec.name.empty())
      throw std::invalid_argument("TenantRegistry: tenant name must be non-empty");
    if (!(spec.weight > 0.0) || !std::isfinite(spec.weight))
      throw std::invalid_argument("TenantRegistry: tenant '" + spec.name +
                                  "' weight must be positive and finite");
    if (!(spec.guaranteedShare >= 0.0) || spec.guaranteedShare > 1.0)
      throw std::invalid_argument("TenantRegistry: tenant '" + spec.name +
                                  "' guaranteedShare must be in [0, 1]");
    if (!(spec.burstLimit >= 0.0) || !std::isfinite(spec.burstLimit))
      throw std::invalid_argument("TenantRegistry: tenant '" + spec.name +
                                  "' burstLimit must be >= 0 and finite");
    guaranteeSum += spec.guaranteedShare;
    totalWeight_ += spec.weight;
    weights_.push_back(spec.weight);
  }
  if (guaranteeSum > 1.0 + 1e-12)
    throw std::invalid_argument(
        "TenantRegistry: guaranteed shares sum past 1.0 — the reserves would "
        "overlap");
  for (std::size_t i = 0; i < specs_.size(); ++i)
    for (std::size_t j = i + 1; j < specs_.size(); ++j)
      if (specs_[i].name == specs_[j].name)
        throw std::invalid_argument("TenantRegistry: duplicate tenant name '" +
                                    specs_[i].name + "'");

  sloClasses_.reserve(specs_.size());
  for (const TenantSpec& spec : specs_)
    sloClasses_.push_back(spec.sloClass.empty() ? "tenant." + spec.name
                                                : spec.sloClass);
}

std::optional<TenantId> TenantRegistry::idOf(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < specs_.size(); ++i)
    if (specs_[i].name == name) return static_cast<TenantId>(i);
  return std::nullopt;
}

double TenantRegistry::weightShare(TenantId id) const {
  return totalWeight_ > 0.0 ? specs_.at(id).weight / totalWeight_ : 0.0;
}

double TenantRegistry::entitledTokens(TenantId id, double totalTokens) const {
  return specs_.at(id).guaranteedShare * totalTokens;
}

double TenantRegistry::capTokens(TenantId id, double totalTokens) const {
  return std::max(entitledTokens(id, totalTokens),
                  specs_.at(id).burstLimit * weightShare(id) * totalTokens);
}

const char* admissionName(Admission outcome) noexcept {
  switch (outcome) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kRejectedOverShare: return "rejected_over_share";
    case Admission::kRejectedNoToken: return "rejected_no_token";
  }
  return "unknown";
}

TokenBank::TokenBank(std::vector<std::uint32_t> machineSlots,
                     const TenantRegistry& registry)
    : free_(std::move(machineSlots)), held_(registry.count(), 0) {
  for (const std::uint32_t slots : free_) totalTokens_ += slots;
  totalFree_ = totalTokens_;
  entitled_.reserve(registry.count());
  cap_.reserve(registry.count());
  const auto total = static_cast<double>(totalTokens_);
  for (TenantId t = 0; t < registry.count(); ++t) {
    entitled_.push_back(registry.entitledTokens(t, total));
    cap_.push_back(registry.capTokens(t, total));
  }
}

Admission TokenBank::acquire(
    TenantId tenant, std::span<const std::vector<ReplicaHost>> hostsPerPartition,
    std::vector<std::uint32_t>& picks) {
  const auto need = static_cast<double>(hostsPerPartition.size());
  std::lock_guard lock(mutex_);
  const double heldAfter = static_cast<double>(held_[tenant]) + need;
  // A cap covering the whole bank can only bind once the bank is dry,
  // which is scarcity, not share: the implicit tenant is never over-share.
  if (cap_[tenant] < static_cast<double>(totalTokens_) &&
      heldAfter > cap_[tenant] + 1e-9)
    return Admission::kRejectedOverShare;
  // Bank-wide scarcity is physical exhaustion whatever the lane — an
  // over-share verdict is reserved for limits another tenant's entitlement
  // imposes.
  if (static_cast<double>(totalFree_) < need) return Admission::kRejectedNoToken;
  if (heldAfter > entitled_[tenant] + 1e-9) {
    // Burst lane: the extra may only come from headroom no other tenant's
    // guarantee has a claim on.
    double reservedByOthers = 0.0;
    for (TenantId u = 0; u < held_.size(); ++u)
      if (u != tenant)
        reservedByOthers +=
            std::max(0.0, entitled_[u] - static_cast<double>(held_[u]));
    if (static_cast<double>(totalFree_) - reservedByOthers < need - 1e-9)
      return Admission::kRejectedOverShare;
  }
  // Greedy binding: each partition to the hosting machine with the most
  // free tokens — least-loaded token dispatch (ties to the first-listed
  // host, so routing is deterministic).
  std::vector<std::uint32_t> chosen(hostsPerPartition.size());
  for (std::size_t g = 0; g < hostsPerPartition.size(); ++g) {
    const auto& hosts = hostsPerPartition[g];
    std::uint32_t best = 0;
    std::uint32_t bestFree = 0;
    for (std::uint32_t i = 0; i < hosts.size(); ++i) {
      const std::uint32_t f = free_[hosts[i].first];
      if (f > bestFree) {
        bestFree = f;
        best = i;
      }
    }
    if (bestFree == 0) {
      // Roll back this query's partial bindings; no tokens move.
      // (totalFree_ is only adjusted on success, so just the per-machine
      // counts are restored here.)
      for (std::size_t r = 0; r < g; ++r)
        ++free_[hostsPerPartition[r][chosen[r]].first];
      return Admission::kRejectedNoToken;
    }
    --free_[hosts[best].first];
    chosen[g] = best;
  }
  totalFree_ -= hostsPerPartition.size();
  held_[tenant] += hostsPerPartition.size();
  picks = std::move(chosen);
  return Admission::kAdmitted;
}

void TokenBank::release(TenantId tenant, MachineId machine) {
  {
    std::lock_guard lock(mutex_);
    ++free_[machine];
    ++totalFree_;
    if (held_[tenant] > 0) --held_[tenant];
    releases_.fetch_add(1, std::memory_order_release);
  }
  released_.notify_all();  // no syscall while nobody waits
}

bool TokenBank::awaitRelease(std::uint64_t epoch,
                             std::optional<Clock::time_point> deadline) {
  if (deadline && Clock::now() >= *deadline) return false;
  std::unique_lock lock(mutex_);
  const auto woken = [&] {
    return closed_ || releases_.load(std::memory_order_relaxed) != epoch;
  };
  if (!woken() && totalFree_ == totalTokens_) return false;
  const bool released = deadline ? released_.wait_until(lock, *deadline, woken)
                                 : (released_.wait(lock, woken), true);
  return released && !closed_;
}

void TokenBank::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  released_.notify_all();
}

std::uint64_t TokenBank::freeTokens() const {
  std::lock_guard lock(mutex_);
  return totalFree_;
}

std::uint64_t TokenBank::freeOn(MachineId machine) const {
  std::lock_guard lock(mutex_);
  return free_.at(machine);
}

std::uint64_t TokenBank::heldBy(TenantId tenant) const {
  std::lock_guard lock(mutex_);
  return held_.at(tenant);
}

}  // namespace resex::serve
