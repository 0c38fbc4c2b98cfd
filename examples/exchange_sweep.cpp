// Resource-exchange mechanism study: how much do borrowed vacant machines
// actually buy? Sweeps the exchange-machine count k on an otherwise
// identical tight cluster and reports the balance SRA reaches, the staging
// it needs, and the lower bound it is chasing.
//
//   ./exchange_sweep [--machines N] [--load F] [--kmax K]

#include <cstdio>
#include <iostream>

#include "core/sra.hpp"
#include "model/bounds.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("machines", "40", "regular machines")
      .define("load", "0.85", "load factor (tight by default)")
      .define("kmax", "8", "largest exchange count to try")
      .define("seed", "3", "random seed")
      .define("iters", "12000", "LNS iterations per run");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("exchange_sweep");
    return 0;
  }

  const auto kmax = flags.count("kmax");
  resex::Table table({"k", "lower-bound", "bottleneck", "gap", "staged-hops",
                      "GB", "complete"});

  for (std::size_t k = 0; k <= kmax; k = (k == 0 ? 1 : k * 2)) {
    resex::SyntheticConfig gen;
    gen.seed = flags.count<std::uint64_t>("seed");
    gen.machines = flags.count("machines");
    gen.exchangeMachines = k;
    gen.loadFactor = flags.real("load");
    gen.placementSkew = 1.0;
    const resex::Instance instance = resex::generateSynthetic(gen);

    resex::SraConfig config;
    config.lns.seed = gen.seed;
    config.lns.maxIterations = flags.count("iters");
    resex::Sra sra(config);
    const resex::RebalanceResult r = sra.rebalance(instance);

    const double lb = resex::bottleneckLowerBound(instance);
    table.addRow({resex::Table::num(k), resex::Table::num(lb, 4),
                  resex::Table::num(r.after.bottleneckUtil, 4),
                  resex::Table::pct(r.after.bottleneckUtil / lb - 1.0, 1),
                  resex::Table::num(r.schedule.stagedHops),
                  resex::Table::num(r.schedule.totalBytes / 1e9, 1),
                  r.scheduleComplete() ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nNote: the same shards and machines at every k; only the borrowed pool "
      "grows. Diminishing returns past a few machines is the expected shape.\n");
  return 0;
}
