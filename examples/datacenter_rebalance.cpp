// Datacenter scenario: compare every rebalancer on the same stringent
// cluster and print a side-by-side report — the workflow an operator
// would run before choosing a strategy.
//
//   ./datacenter_rebalance [--machines N] [--load F] [--seed S]

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "core/baselines.hpp"
#include "core/sra.hpp"
#include "model/bounds.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("machines", "80", "regular machines")
      .define("exchange", "4", "exchange machines")
      .define("load", "0.82", "load factor — try raising it toward 0.9")
      .define("seed", "7", "random seed")
      .define("iters", "20000", "LNS iterations for SRA");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("datacenter_rebalance");
    return 0;
  }

  resex::SyntheticConfig gen;
  gen.seed = flags.count<std::uint64_t>("seed");
  gen.machines = flags.count("machines");
  gen.exchangeMachines = flags.count("exchange");
  gen.shardsPerMachine = 18.0;
  gen.loadFactor = flags.real("load");
  gen.placementSkew = 1.0;
  gen.skuCount = 2;
  const resex::Instance instance = resex::generateSynthetic(gen);

  std::printf("cluster: %zu machines + %zu exchange, %zu shards, load %.2f\n",
              instance.regularCount(), instance.exchangeCount(),
              instance.shardCount(), instance.loadFactor());
  std::printf("bottleneck lower bound (volume/indivisibility): %.4f\n\n",
              resex::bottleneckLowerBound(instance));

  resex::SraConfig sraConfig;
  sraConfig.lns.seed = gen.seed;
  sraConfig.lns.maxIterations = flags.count("iters");

  std::vector<std::unique_ptr<resex::Rebalancer>> algorithms;
  algorithms.push_back(std::make_unique<resex::NoopRebalancer>());
  algorithms.push_back(std::make_unique<resex::GreedyRebalancer>());
  algorithms.push_back(std::make_unique<resex::SwapLocalSearch>());
  algorithms.push_back(std::make_unique<resex::FlowRebalancer>());
  algorithms.push_back(std::make_unique<resex::FfdRepack>());
  algorithms.push_back(std::make_unique<resex::Sra>(sraConfig));

  resex::Table table({"algorithm", "bottleneck", "cv", "jain", "moved", "GB",
                      "phases", "staged", "complete", "secs"});
  for (auto& algorithm : algorithms) {
    const resex::RebalanceResult r = algorithm->rebalance(instance);
    table.addRow({r.algorithm, resex::Table::num(r.after.bottleneckUtil, 4),
                  resex::Table::num(r.after.utilCv, 3),
                  resex::Table::num(r.after.jain, 3),
                  resex::Table::num(r.after.movedShards),
                  resex::Table::num(r.schedule.totalBytes / 1e9, 1),
                  resex::Table::num(r.schedule.phaseCount()),
                  resex::Table::num(r.schedule.stagedHops),
                  r.scheduleComplete() ? "yes" : "NO",
                  resex::Table::num(r.solveSeconds, 2)});
  }
  table.print();
  std::printf("\n(the 'no-op' row is the state the cluster starts in)\n");
  return 0;
}
