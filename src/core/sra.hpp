// SRA — the paper's Shard Reassignment Algorithm.
//
// Pipeline:
//   1. optimize the end-state assignment with (vacancy-constrained) LNS,
//      optionally as a parallel multi-start portfolio; exchange machines
//      are placement targets like any other, and the compensation
//      constraint (Instance::vacancyTarget machines vacant at the end) is
//      enforced through the objective's feasibility-first vacancy deficit;
//   2. synthesize a transient-feasible migration schedule, staging blocked
//      moves through vacant machines;
//   3. if the optimizer could not restore the vacancy constraint (deficit
//      > 0 — only possible on pathological instances), fall back to the
//      initial placement rather than return an unreturnable cluster.
#pragma once

#include "cluster/scheduler.hpp"
#include "core/rebalancer.hpp"
#include "lns/lns.hpp"

namespace resex {

struct SraConfig {
  LnsConfig lns;
  SchedulerOptions scheduler;
  /// Run `portfolioSearches` independent seeded searches in parallel and
  /// keep the best (0/1 = single search).
  std::size_t portfolioSearches = 1;
  /// Objective shaping (see Objective::forInstance).
  double spreadWeight = 0.1;
  double bytesWeight = 0.05;
  /// Run the final move/swap hill-climb polish on the LNS result.
  bool polish = true;
  /// Wall-clock budget of the polish phase.
  double polishSeconds = 5.0;
};

class Sra final : public Rebalancer {
 public:
  explicit Sra(SraConfig config = {}) : config_(config) {}

  std::string_view name() const noexcept override { return "SRA"; }
  RebalanceResult rebalance(const Instance& instance) override;

  /// The LNS result of the last rebalance (trajectory, operator stats) —
  /// consumed by the convergence and ablation experiments.
  const LnsResult& lastSearch() const noexcept { return lastSearch_; }

 private:
  SraConfig config_;
  LnsResult lastSearch_;
};

}  // namespace resex
