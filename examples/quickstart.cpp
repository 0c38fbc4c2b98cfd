// Quickstart: generate a skewed cluster, rebalance it with SRA, inspect
// the result. This is the five-minute tour of the public API.
//
//   ./quickstart [--machines N] [--exchange K] [--load F] [--seed S]

#include <cstdio>
#include <iostream>

#include "core/sra.hpp"
#include "util/flags.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("machines", "50", "regular machines in the cluster")
      .define("exchange", "4", "borrowed exchange machines")
      .define("load", "0.75", "cluster load factor in (0,1)")
      .define("seed", "1", "random seed")
      .define("iters", "20000", "LNS iterations");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("quickstart");
    return 0;
  }

  // 1. A synthetic search-engine cluster: heavy-tailed shard demands,
  //    correlated CPU/memory dimensions, skewed initial placement.
  resex::SyntheticConfig gen;
  gen.seed = flags.count<std::uint64_t>("seed");
  gen.machines = flags.count("machines");
  gen.exchangeMachines = flags.count("exchange");
  gen.loadFactor = flags.real("load");
  gen.placementSkew = 1.0;
  const resex::Instance instance = resex::generateSynthetic(gen);

  std::printf("instance: %zu machines (+%zu exchange), %zu shards, load %.2f\n",
              instance.regularCount(), instance.exchangeCount(),
              instance.shardCount(), instance.loadFactor());

  // 2. Rebalance with SRA: LNS end-state optimization + polish + a
  //    transient-feasible migration schedule.
  resex::SraConfig config;
  config.lns.seed = gen.seed;
  config.lns.maxIterations = flags.count("iters");
  resex::Sra sra(config);
  const resex::RebalanceResult result = sra.rebalance(instance);

  // 3. Inspect.
  std::printf("\nbefore: %s\n", result.before.summary().c_str());
  std::printf("after : %s\n", result.after.summary().c_str());
  std::printf(
      "\nschedule: %zu phases, %zu moves (%zu staged hops), %.2f GB transferred, "
      "peak transient util %.3f, complete=%s\n",
      result.schedule.phaseCount(), result.schedule.moveCount(),
      result.schedule.stagedHops, result.schedule.totalBytes / 1e9,
      result.schedule.peakTransientUtil(), result.scheduleComplete() ? "yes" : "no");
  std::printf("solve time: %.2fs\n", result.solveSeconds);

  // 4. Audit: every constraint of the problem, independently verified.
  const auto problems = resex::verifySchedule(instance, instance.initialAssignment(),
                                              result.targetMapping, result.schedule);
  if (!problems.empty()) {
    std::printf("AUDIT FAILED:\n");
    for (const auto& p : problems) std::printf("  %s\n", p.c_str());
    return 1;
  }
  std::printf("audit: schedule verified (capacity + transient + compensation)\n");
  return 0;
}
