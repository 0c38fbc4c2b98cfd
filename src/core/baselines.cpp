#include "core/baselines.hpp"

#include <algorithm>
#include <limits>

#include "util/timer.hpp"

namespace resex {
namespace {

/// Utilization a machine would have with `delta` applied to its load.
double utilWith(const Instance& instance, const Assignment& a, MachineId m,
                const ResourceVector& delta) {
  const ResourceVector after = a.loadOf(m) + delta;
  return after.utilizationAgainst(instance.machine(m).capacity);
}

/// The three highest-utilization machines (ids + utils), so the bottleneck
/// after changing any two machines can be recomputed in O(1).
struct TopUtils {
  MachineId id[3] = {kNoMachine, kNoMachine, kNoMachine};
  double util[3] = {-1.0, -1.0, -1.0};

  static TopUtils scan(const Assignment& a, std::size_t machineCount) {
    TopUtils top;
    for (MachineId m = 0; m < machineCount; ++m) {
      const double u = a.utilizationOf(m);
      if (u > top.util[0]) {
        top.id[2] = top.id[1]; top.util[2] = top.util[1];
        top.id[1] = top.id[0]; top.util[1] = top.util[0];
        top.id[0] = m; top.util[0] = u;
      } else if (u > top.util[1]) {
        top.id[2] = top.id[1]; top.util[2] = top.util[1];
        top.id[1] = m; top.util[1] = u;
      } else if (u > top.util[2]) {
        top.id[2] = m; top.util[2] = u;
      }
    }
    return top;
  }

  /// Highest utilization among machines not in {a, b}.
  double maxExcluding(MachineId a, MachineId b) const noexcept {
    for (int i = 0; i < 3; ++i)
      if (id[i] != a && id[i] != b && id[i] != kNoMachine) return util[i];
    return 0.0;
  }
};

}  // namespace

RebalanceResult NoopRebalancer::rebalance(const Instance& instance) {
  return finalizeResult(instance, std::string(name()), instance.initialAssignment(),
                        SchedulerOptions{}, 0.0);
}

RebalanceResult SwapLocalSearch::rebalance(const Instance& instance) {
  WallTimer timer;
  Assignment cur(instance);
  const Objective objective(instance.vacancyTarget());
  const std::size_t regular = instance.regularCount();
  const ResourceVector& gamma = instance.transientGamma();

  Schedule schedule;
  constexpr double kTol = 1e-9;

  for (std::size_t step = 0; step < config_.maxSteps; ++step) {
    if (timer.seconds() >= config_.timeBudgetSeconds) break;

    const TopUtils top = TopUtils::scan(cur, regular);
    const double curBottleneck = top.util[0];
    const double curSumSq = cur.sumSquaredUtil();

    // Source pool: the hottest few machines.
    std::vector<MachineId> sources;
    for (int i = 0; i < 3 && sources.size() < config_.sourcePoolSize; ++i)
      if (top.id[i] != kNoMachine) sources.push_back(top.id[i]);

    struct Candidate {
      ShardId s1 = 0;
      MachineId from = 0;
      MachineId to = 0;
      ShardId s2 = 0;      // partner for swaps
      bool isSwap = false;
      double bottleneck = std::numeric_limits<double>::infinity();
      double sumSq = std::numeric_limits<double>::infinity();
    };
    Candidate best;
    auto consider = [&best](const Candidate& cand) {
      if (cand.bottleneck < best.bottleneck - kTol ||
          (cand.bottleneck <= best.bottleneck + kTol && cand.sumSq < best.sumSq - kTol))
        best = cand;
    };

    for (const MachineId src : sources) {
      const double uSrc = cur.utilizationOf(src);
      for (const ShardId s1 : cur.shardsOn(src)) {
        const ResourceVector& w1 = instance.shard(s1).demand;
        const ResourceVector srcWithout = cur.loadOf(src) - w1;
        const double newUSrc =
            srcWithout.utilizationAgainst(instance.machine(src).capacity);
        for (MachineId to = 0; to < regular; ++to) {
          if (to == src) continue;
          const double uTo = cur.utilizationOf(to);
          // Plain move.
          if (cur.canPlaceTransient(s1, to)) {
            const double newUTo = utilWith(instance, cur, to, w1);
            if (newUTo <= curBottleneck + kTol) {
              Candidate cand;
              cand.s1 = s1; cand.from = src; cand.to = to;
              cand.bottleneck =
                  std::max({newUSrc, newUTo, top.maxExcluding(src, to)});
              cand.sumSq = curSumSq - uSrc * uSrc - uTo * uTo +
                           newUSrc * newUSrc + newUTo * newUTo;
              consider(cand);
            }
          }
          // Swaps with each shard on `to`. The target-side copy window is
          // shared by every partner on `to`, so check it once.
          const ResourceVector gammaW1 = w1.hadamard(gamma);
          const ResourceVector toWindow = cur.loadOf(to) + gammaW1;
          if (!toWindow.fitsWithin(instance.machine(to).capacity)) continue;
          if (cur.hasReplicaOn(s1, to)) continue;  // co-residency during copy
          for (const ShardId s2 : cur.shardsOn(to)) {
            const ResourceVector& w2 = instance.shard(s2).demand;
            if (cur.hasReplicaOn(s2, src)) continue;
            // Cheapest rejection first: any accepted step needs the hot
            // machine's new utilization at or below the current bottleneck.
            const ResourceVector srcEnd = srcWithout + w2;
            const double newUSrc2 =
                srcEnd.utilizationAgainst(instance.machine(src).capacity);
            if (newUSrc2 > curBottleneck + kTol) continue;
            if (!srcEnd.fitsWithin(instance.machine(src).capacity)) continue;
            // Copy windows: both machines still hold their shard while the
            // incoming copy builds.
            const ResourceVector srcWindow = cur.loadOf(src) + w2.hadamard(gamma);
            if (!srcWindow.fitsWithin(instance.machine(src).capacity)) continue;
            // End state on the target.
            const ResourceVector toEnd = cur.loadOf(to) - w2 + w1;
            if (!toEnd.fitsWithin(instance.machine(to).capacity)) continue;
            const double newUTo2 =
                toEnd.utilizationAgainst(instance.machine(to).capacity);
            if (newUTo2 > curBottleneck + kTol) continue;
            Candidate cand;
            cand.s1 = s1; cand.from = src; cand.to = to;
            cand.s2 = s2; cand.isSwap = true;
            cand.bottleneck =
                std::max({newUSrc2, newUTo2, top.maxExcluding(src, to)});
            cand.sumSq = curSumSq - uSrc * uSrc - uTo * uTo +
                         newUSrc2 * newUSrc2 + newUTo2 * newUTo2;
            consider(cand);
          }
        }
      }
    }

    const bool improves =
        best.bottleneck < curBottleneck - kTol ||
        (best.bottleneck <= curBottleneck + kTol && best.sumSq < curSumSq - kTol);
    if (!improves || best.bottleneck == std::numeric_limits<double>::infinity()) break;

    Phase phase;
    phase.moves.push_back(Move{best.s1, best.from, best.to});
    schedule.totalBytes += instance.shard(best.s1).moveBytes;
    cur.moveShard(best.s1, best.to);
    if (best.isSwap) {
      phase.moves.push_back(Move{best.s2, best.to, best.from});
      schedule.totalBytes += instance.shard(best.s2).moveBytes;
      cur.moveShard(best.s2, best.from);
    }
    phase.peakTransientUtil = 0.0;  // filled by the verification replay if needed
    schedule.phases.push_back(std::move(phase));
  }

  RebalanceResult result;
  result.algorithm = std::string(name());
  result.solveSeconds = timer.seconds();
  result.targetMapping = cur.mapping();
  result.finalMapping = cur.mapping();
  result.schedule = std::move(schedule);
  result.before = measureBalance(Assignment(instance));
  result.after = measureBalance(cur);
  result.finalScore = objective.evaluate(cur);
  return result;
}

RebalanceResult GreedyRebalancer::rebalance(const Instance& instance) {
  WallTimer timer;
  Assignment cur(instance);
  const Objective objective(instance.vacancyTarget());
  const std::size_t regular = instance.regularCount();

  Schedule schedule;
  for (std::size_t moveCount = 0; moveCount < config_.maxMoves; ++moveCount) {
    // Hottest and coldest regular machines.
    MachineId hot = 0;
    MachineId cold = 0;
    for (MachineId m = 1; m < regular; ++m) {
      if (cur.utilizationOf(m) > cur.utilizationOf(hot)) hot = m;
      if (cur.utilizationOf(m) < cur.utilizationOf(cold)) cold = m;
    }
    if (hot == cold) break;
    const double uHot = cur.utilizationOf(hot);

    // Largest shard on the hot machine that fits transiently on the cold
    // machine and actually lowers the hot/cold pair's worst utilization.
    std::vector<ShardId> resident(cur.shardsOn(hot).begin(), cur.shardsOn(hot).end());
    std::sort(resident.begin(), resident.end(), [&instance](ShardId a, ShardId b) {
      return instance.shard(a).demand.maxComponent() >
             instance.shard(b).demand.maxComponent();
    });
    bool moved = false;
    for (const ShardId s : resident) {
      if (!cur.canPlaceTransient(s, cold)) continue;
      const double newUCold = utilWith(instance, cur, cold, instance.shard(s).demand);
      if (newUCold >= uHot - 1e-9) continue;  // would just shift the hotspot
      Phase phase;
      phase.moves.push_back(Move{s, hot, cold});
      schedule.totalBytes += instance.shard(s).moveBytes;
      schedule.phases.push_back(std::move(phase));
      cur.moveShard(s, cold);
      moved = true;
      break;
    }
    if (!moved) break;
  }

  RebalanceResult result;
  result.algorithm = std::string(name());
  result.solveSeconds = timer.seconds();
  result.targetMapping = cur.mapping();
  result.finalMapping = cur.mapping();
  result.schedule = std::move(schedule);
  result.before = measureBalance(Assignment(instance));
  result.after = measureBalance(cur);
  result.finalScore = objective.evaluate(cur);
  return result;
}

RebalanceResult FlowRebalancer::rebalance(const Instance& instance) {
  WallTimer timer;
  Assignment cur(instance);
  const Objective objective(instance.vacancyTarget());
  const std::size_t regular = instance.regularCount();

  // Mean utilization over regular machines: the water level every machine
  // is pushed toward.
  auto meanUtil = [&cur, regular]() {
    double total = 0.0;
    for (MachineId m = 0; m < regular; ++m) total += cur.utilizationOf(m);
    return total / static_cast<double>(regular);
  };

  Schedule schedule;
  for (std::size_t moveCount = 0; moveCount < config_.maxMoves; ++moveCount) {
    const double mean = meanUtil();
    MachineId donor = 0;
    MachineId receiver = 0;
    for (MachineId m = 1; m < regular; ++m) {
      if (cur.utilizationOf(m) > cur.utilizationOf(donor)) donor = m;
      if (cur.utilizationOf(m) < cur.utilizationOf(receiver)) receiver = m;
    }
    const double surplus = cur.utilizationOf(donor) - mean;
    const double deficit = mean - cur.utilizationOf(receiver);
    if (surplus <= config_.tolerance && deficit <= config_.tolerance) break;

    // The transfer amount this pairing wants, in the receiver's capacity
    // units: enough to lift the receiver to the mean without dropping the
    // donor below it.
    const double wanted =
        std::min(surplus, deficit) * instance.machine(receiver).capacity[0];

    // The donor shard whose size best matches the wanted transfer, among
    // directly transient-feasible moves that do not overshoot into a new
    // imbalance (post-move receiver must stay at or below the donor).
    ShardId bestShard = 0;
    double bestError = std::numeric_limits<double>::infinity();
    bool found = false;
    for (const ShardId s : cur.shardsOn(donor)) {
      if (!cur.canPlaceTransient(s, receiver)) continue;
      const double newUReceiver =
          utilWith(instance, cur, receiver, instance.shard(s).demand);
      if (newUReceiver >= cur.utilizationOf(donor) - 1e-9) continue;
      const double size = instance.shard(s).demand.maxComponent();
      const double error = std::abs(size - wanted);
      if (error < bestError) {
        bestError = error;
        bestShard = s;
        found = true;
      }
    }
    if (!found) break;  // the pairing is stuck; a real MCMF would re-pair

    Phase phase;
    phase.moves.push_back(Move{bestShard, donor, receiver});
    schedule.totalBytes += instance.shard(bestShard).moveBytes;
    schedule.phases.push_back(std::move(phase));
    cur.moveShard(bestShard, receiver);
  }

  RebalanceResult result;
  result.algorithm = std::string(name());
  result.solveSeconds = timer.seconds();
  result.targetMapping = cur.mapping();
  result.finalMapping = cur.mapping();
  result.schedule = std::move(schedule);
  result.before = measureBalance(Assignment(instance));
  result.after = measureBalance(cur);
  result.finalScore = objective.evaluate(cur);
  return result;
}

RebalanceResult FfdRepack::rebalance(const Instance& instance) {
  WallTimer timer;
  const std::size_t regular = instance.regularCount();

  std::vector<ShardId> order(instance.shardCount());
  for (ShardId s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&instance](ShardId a, ShardId b) {
    return instance.shard(a).demand.maxComponent() >
           instance.shard(b).demand.maxComponent();
  });

  std::vector<ResourceVector> loads(regular, ResourceVector(instance.dims()));
  std::vector<MachineId> target(instance.shardCount(), kNoMachine);
  for (const ShardId s : order) {
    MachineId best = kNoMachine;
    double bestUtil = std::numeric_limits<double>::infinity();
    for (MachineId m = 0; m < regular; ++m) {
      if (Assignment::replicaConflict(instance, target, s, m)) continue;
      const ResourceVector after = loads[m] + instance.shard(s).demand;
      const double util = after.utilizationAgainst(instance.machine(m).capacity);
      const bool fits = after.fitsWithin(instance.machine(m).capacity);
      // Prefer feasible placements; among them, the lowest resulting util.
      const double key = fits ? util : util + 100.0;
      if (key < bestUtil) {
        bestUtil = key;
        best = m;
      }
    }
    if (best == kNoMachine) {
      // Every regular machine hosts a replica peer (replication close to
      // the regular machine count): fall back to the least-loaded one.
      for (MachineId m = 0; m < regular; ++m) {
        const double util = (loads[m] + instance.shard(s).demand)
                                .utilizationAgainst(instance.machine(m).capacity);
        if (best == kNoMachine || util < bestUtil) {
          bestUtil = util;
          best = m;
        }
      }
    }
    target[s] = best;
    loads[best] += instance.shard(s).demand;
  }

  return finalizeResult(instance, std::string(name()), std::move(target),
                        SchedulerOptions{}, timer.seconds());
}

}  // namespace resex
