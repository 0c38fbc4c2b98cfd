// T4 — Scalability: solution quality and wall-clock vs cluster size.
//
// Cluster sizes from 50 to 800 machines (shards scale proportionally),
// each solved under the same fixed wall-clock budget, single-search vs
// the parallel multi-start portfolio. Expected shape: quality degrades
// gracefully with size at fixed budget; the portfolio holds quality
// longer by spending cores instead of time.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/baselines.hpp"
#include "core/sra.hpp"
#include "model/bounds.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

namespace {
constexpr double kBudgetSeconds = 1.5;
}

int main() {
  const unsigned searches = std::max(1u, std::thread::hardware_concurrency());
  std::printf("== T4: scalability at a fixed %.1fs wall-clock budget ==\n",
              kBudgetSeconds);
  std::printf("portfolio uses %u worker threads\n\n", searches);

  resex::Table table({"machines", "shards", "lower-bound", "SRA-1", "SRA-portfolio",
                      "swap-LS", "SRA-1 secs", "portfolio secs", "LS secs"});

  for (const std::size_t machines : {50u, 100u, 200u, 400u, 800u}) {
    resex::SyntheticConfig gen;
    gen.seed = machines;  // distinct but reproducible
    gen.machines = machines;
    gen.exchangeMachines = std::max<std::size_t>(2, machines / 25);
    gen.shardsPerMachine = 15.0;
    gen.loadFactor = 0.8;
    gen.placementSkew = 0.9;
    const resex::Instance instance = resex::generateSynthetic(gen);

    resex::SraConfig single;
    single.lns.seed = 1;
    single.lns.maxIterations = 1u << 30;  // bound by time only
    single.lns.timeBudgetSeconds = kBudgetSeconds * 0.8;
    single.polishSeconds = kBudgetSeconds * 0.2;
    resex::Sra sraSingle(single);
    const resex::RebalanceResult rSingle = sraSingle.rebalance(instance);

    resex::SraConfig multi = single;
    multi.portfolioSearches = searches;
    resex::Sra sraMulti(multi);
    const resex::RebalanceResult rMulti = sraMulti.rebalance(instance);

    resex::SwapLsConfig lsConfig;
    lsConfig.timeBudgetSeconds = kBudgetSeconds;
    resex::SwapLocalSearch ls(lsConfig);
    const resex::RebalanceResult rLs = ls.rebalance(instance);

    table.addRow({resex::Table::num(machines),
                  resex::Table::num(instance.shardCount()),
                  resex::Table::num(resex::bottleneckLowerBound(instance), 4),
                  resex::Table::num(rSingle.after.bottleneckUtil, 4),
                  resex::Table::num(rMulti.after.bottleneckUtil, 4),
                  resex::Table::num(rLs.after.bottleneckUtil, 4),
                  resex::Table::num(rSingle.solveSeconds, 2),
                  resex::Table::num(rMulti.solveSeconds, 2),
                  resex::Table::num(rLs.solveSeconds, 2)});
  }
  table.print();
  return 0;
}
