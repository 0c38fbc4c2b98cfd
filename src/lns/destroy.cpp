#include "lns/destroy.hpp"

#include <algorithm>
#include <cmath>

namespace resex {

void RandomDestroy::destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                                Ruin& out) {
  const std::size_t n = assignment.instance().shardCount();
  if (n == 0) return;
  // Rejection-sample assigned shards; removed shards become unassigned and
  // are skipped on re-pick, so the result is without replacement.
  std::size_t guard = 0;
  while (out.size() < quota && guard++ < quota * 8 + 16) {
    const auto shard = static_cast<ShardId>(rng.below(n));
    if (!assignment.isAssigned(shard)) continue;
    out.take(assignment, shard);
  }
}

void WorstMachineDestroy::destroyInto(Assignment& assignment, std::size_t quota,
                                      Rng& rng, Ruin& out) {
  const Instance& instance = assignment.instance();
  const std::size_t m = instance.machineCount();
  if (m == 0) return;
  byUtil_.resize(m);
  for (MachineId i = 0; i < m; ++i) byUtil_[i] = i;
  const std::size_t top = std::max<std::size_t>(
      1, static_cast<std::size_t>(topFraction_ * static_cast<double>(m)));
  // Only the membership of the top set matters (victims are sampled
  // uniformly from it), so an O(m) partition beats the old full sort.
  if (top < m)
    std::nth_element(byUtil_.begin(), byUtil_.begin() + static_cast<std::ptrdiff_t>(top),
                     byUtil_.end(), [&assignment](MachineId a, MachineId b) {
                       return assignment.utilizationOf(a) > assignment.utilizationOf(b);
                     });

  std::size_t guard = 0;
  while (out.size() < quota && guard++ < quota * 8 + 16) {
    const MachineId victim = byUtil_[rng.below(top)];
    const auto resident = assignment.shardsOn(victim);
    if (resident.empty()) continue;
    const ShardId shard = resident[rng.below(resident.size())];
    out.take(assignment, shard);
  }
}

void ShawDestroy::destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                              Ruin& out) {
  const Instance& instance = assignment.instance();
  const std::size_t n = instance.shardCount();
  if (quota == 0 || n == 0) return;

  // Find an assigned seed.
  ShardId seed = kNoMachine;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto cand = static_cast<ShardId>(rng.below(n));
    if (assignment.isAssigned(cand)) {
      seed = cand;
      break;
    }
  }
  if (seed == kNoMachine) return;

  const MachineId seedMachine = assignment.machineOf(seed);
  candidates_.clear();
  const ResourceVector& seedDemand = instance.shard(seed).demand;
  for (ShardId s = 0; s < n; ++s) {
    if (s == seed || !assignment.isAssigned(s)) continue;
    double dist = demandDistance(seedDemand, instance.shard(s).demand);
    if (assignment.machineOf(s) == seedMachine) dist *= sameMachineBonus_;
    candidates_.push_back(Scored{s, dist});
  }
  // The y^p pick concentrates on the most-related prefix; keep only the
  // best K and sort those, instead of sorting all n candidates.
  const std::size_t keep =
      std::min(candidates_.size(), std::max<std::size_t>(64, 8 * quota));
  const auto lessRelated = [](const Scored& a, const Scored& b) {
    return a.relatedness < b.relatedness;
  };
  if (keep < candidates_.size()) {
    std::nth_element(candidates_.begin(),
                     candidates_.begin() + static_cast<std::ptrdiff_t>(keep),
                     candidates_.end(), lessRelated);
    candidates_.resize(keep);
  }
  std::sort(candidates_.begin(), candidates_.end(), lessRelated);

  out.take(assignment, seed);
  // Biased pick from the sorted-by-relatedness prefix (classic Shaw y^p).
  taken_.assign(candidates_.size(), false);
  while (out.size() < quota && out.size() <= candidates_.size()) {
    const double y = std::pow(rng.uniform(), greediness_);
    auto idx = static_cast<std::size_t>(y * static_cast<double>(candidates_.size()));
    if (idx >= candidates_.size() && !candidates_.empty()) idx = candidates_.size() - 1;
    // Walk forward to the first untaken candidate.
    while (idx < candidates_.size() && taken_[idx]) ++idx;
    if (idx >= candidates_.size()) break;
    taken_[idx] = true;
    out.take(assignment, candidates_[idx].shard);
  }
}

void VacancyDestroy::destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                                 Ruin& out) {
  const Instance& instance = assignment.instance();
  const std::size_t m = instance.machineCount();
  occupied_.clear();
  for (MachineId i = 0; i < m; ++i)
    if (!assignment.isVacant(i)) occupied_.push_back(i);
  if (occupied_.empty()) return;
  // Each drained machine holds >= 1 shard, so the cursor never needs to
  // walk past ~quota machines: partial_sort the prefix we can reach.
  const std::size_t reach = std::min(occupied_.size(), quota + 16);
  std::partial_sort(occupied_.begin(),
                    occupied_.begin() + static_cast<std::ptrdiff_t>(reach),
                    occupied_.end(), [&assignment](MachineId a, MachineId b) {
                      const std::size_t ca = assignment.shardCountOn(a);
                      const std::size_t cb = assignment.shardCountOn(b);
                      if (ca != cb) return ca < cb;
                      return assignment.utilizationOf(a) < assignment.utilizationOf(b);
                    });

  // Drain whole machines, lightest first, with slight randomization so
  // repeated applications explore different vacancy patterns.
  std::size_t cursor = 0;
  while (out.size() < quota && cursor < reach) {
    std::size_t pick = cursor;
    if (cursor + 1 < reach && rng.chance(0.25)) pick = cursor + 1;
    const MachineId victim = occupied_[pick];
    std::swap(occupied_[pick], occupied_[cursor]);
    ++cursor;
    const auto resident = assignment.shardsOn(victim);
    if (resident.size() > quota - out.size() + 4) continue;  // too big to drain
    // Copy: removing mutates the span's backing store.
    toRemove_.assign(resident.begin(), resident.end());
    for (const ShardId s : toRemove_) out.take(assignment, s);
  }
}

}  // namespace resex
