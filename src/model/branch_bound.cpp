#include "model/branch_bound.hpp"

#include <algorithm>
#include <limits>

#include "model/bounds.hpp"
#include "util/timer.hpp"

namespace resex {
namespace {

struct SearchState {
  const Instance* instance;
  const BranchBoundConfig* config;
  const WallTimer* timer;
  std::vector<ShardId> order;           // shards, hardest first
  std::vector<ResourceVector> loads;    // per machine
  std::vector<std::size_t> shardCount;  // per machine
  std::vector<double> utils;            // per machine
  std::vector<MachineId> current;       // partial mapping
  std::size_t vacantNow = 0;
  double lowerBound = 0.0;

  std::vector<MachineId> bestMapping;
  double bestBottleneck = std::numeric_limits<double>::infinity();
  bool foundFeasible = false;
  std::uint64_t nodes = 0;
  bool aborted = false;

  void dfs(std::size_t depth, double currentLambda) {
    if (aborted) return;
    if (++nodes >= config->nodeLimit || timer->seconds() > config->timeBudgetSeconds) {
      aborted = true;
      return;
    }
    if (std::max(currentLambda, lowerBound) >= bestBottleneck - config->gapTolerance)
      return;
    if (vacantNow < instance->vacancyTarget()) return;  // vacancy can never recover

    if (depth == order.size()) {
      bestBottleneck = currentLambda;
      bestMapping = current;
      foundFeasible = true;
      return;
    }

    const ShardId s = order[depth];
    const ResourceVector& w = instance->shard(s).demand;
    const std::size_t m = instance->machineCount();

    // Candidate machines ordered by resulting utilization (best-first
    // search tightens the incumbent early).
    struct Option {
      MachineId machine;
      double util;
      bool opensVacant;
    };
    std::vector<Option> options;
    options.reserve(m);
    // Symmetry breaking: among currently-empty machines of equal capacity,
    // only the lowest-id one is a meaningful choice.
    std::vector<MachineId> emptySeen;
    for (MachineId i = 0; i < m; ++i) {
      const bool empty = shardCount[i] == 0;
      if (empty) {
        bool symmetric = false;
        for (const MachineId prev : emptySeen) {
          if (instance->machine(prev).capacity == instance->machine(i).capacity) {
            symmetric = true;
            break;
          }
        }
        if (symmetric) continue;
        emptySeen.push_back(i);
        if (vacantNow <= instance->vacancyTarget()) continue;  // must stay vacant
      }
      // Anti-affinity: no replica peer already assigned to this machine.
      if (instance->hasReplication()) {
        bool conflict = false;
        for (const ShardId peer : instance->replicaPeers(s))
          if (peer != s && current[peer] == i) conflict = true;
        if (conflict) continue;
      }
      const ResourceVector after = loads[i] + w;
      if (!after.fitsWithin(instance->machine(i).capacity)) continue;
      options.push_back(
          Option{i, after.utilizationAgainst(instance->machine(i).capacity), empty});
    }
    std::sort(options.begin(), options.end(), [](const Option& a, const Option& b) {
      if (a.util != b.util) return a.util < b.util;
      return a.machine < b.machine;
    });

    for (const Option& opt : options) {
      const MachineId i = opt.machine;
      const double prevUtil = utils[i];
      loads[i] += w;
      utils[i] = opt.util;
      ++shardCount[i];
      if (opt.opensVacant) --vacantNow;
      current[s] = i;

      dfs(depth + 1, std::max(currentLambda, opt.util));

      current[s] = kNoMachine;
      if (opt.opensVacant) ++vacantNow;
      --shardCount[i];
      utils[i] = prevUtil;
      loads[i] -= w;
      loads[i].clampNonNegative();
      if (aborted) return;
    }
  }
};

}  // namespace

BranchBoundResult BranchBoundSolver::solve(const Instance& instance) const {
  WallTimer timer;
  SearchState state;
  state.instance = &instance;
  state.config = &config_;
  state.timer = &timer;

  const std::size_t n = instance.shardCount();
  const std::size_t m = instance.machineCount();
  state.order.resize(n);
  for (ShardId s = 0; s < n; ++s) state.order[s] = s;
  std::sort(state.order.begin(), state.order.end(), [&instance](ShardId a, ShardId b) {
    return instance.shard(a).demand.maxComponent() >
           instance.shard(b).demand.maxComponent();
  });

  state.loads.assign(m, ResourceVector(instance.dims()));
  state.shardCount.assign(m, 0);
  state.utils.assign(m, 0.0);
  state.current.assign(n, kNoMachine);
  state.vacantNow = m;
  state.lowerBound = bottleneckLowerBound(instance);

  state.dfs(0, 0.0);

  BranchBoundResult result;
  result.nodesVisited = state.nodes;
  result.seconds = timer.seconds();
  result.feasible = state.foundFeasible;
  result.optimal = state.foundFeasible && !state.aborted;
  if (state.foundFeasible) {
    result.mapping = state.bestMapping;
    result.bottleneck = state.bestBottleneck;
  }
  return result;
}

}  // namespace resex
