// Destroy operators: which shards to rip out each LNS iteration.
//
// All operators keep internal scratch buffers (see the scratch-buffer
// contract in operators.hpp) so a steady-state iteration allocates nothing.
#pragma once

#include "lns/operators.hpp"

namespace resex {

/// Uniformly random assigned shards.
class RandomDestroy final : public DestroyOperator {
 public:
  std::string_view name() const noexcept override { return "random"; }
  void destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                   Ruin& out) override;
};

/// Shards from the most-utilized machines (randomized among the top few):
/// attacks the bottleneck directly.
class WorstMachineDestroy final : public DestroyOperator {
 public:
  /// `topFraction`: sample source machines among the top fraction by util.
  explicit WorstMachineDestroy(double topFraction = 0.15) : topFraction_(topFraction) {}
  std::string_view name() const noexcept override { return "worst-machine"; }
  void destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                   Ruin& out) override;

 private:
  double topFraction_;
  std::vector<MachineId> byUtil_;  // scratch
};

/// Shaw relatedness removal: a random seed shard plus the shards most
/// similar to it (demand distance, with a bonus for sharing a machine);
/// related shards are the ones a repair can profitably interchange.
class ShawDestroy final : public DestroyOperator {
 public:
  explicit ShawDestroy(double sameMachineBonus = 0.5, double greediness = 4.0)
      : sameMachineBonus_(sameMachineBonus), greediness_(greediness) {}
  std::string_view name() const noexcept override { return "shaw"; }
  void destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                   Ruin& out) override;

 private:
  double sameMachineBonus_;
  double greediness_;
  struct Scored {
    ShardId shard;
    double relatedness;
  };
  std::vector<Scored> candidates_;  // scratch
  std::vector<bool> taken_;         // scratch
};

/// Drains the least-loaded occupied machines entirely, creating vacancies —
/// the operator that makes the compensation constraint (return k vacant
/// machines) reachable after the search has spread load onto exchange
/// machines.
class VacancyDestroy final : public DestroyOperator {
 public:
  std::string_view name() const noexcept override { return "vacancy-drain"; }
  void destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                   Ruin& out) override;

 private:
  std::vector<MachineId> occupied_;  // scratch
  std::vector<ShardId> toRemove_;    // scratch
};

}  // namespace resex
