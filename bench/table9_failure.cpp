// T9 (extension) — Machine-failure recovery with and without exchange
// machines.
//
// A machine dies on a loaded cluster; its shards must evacuate under full
// transient constraints. Expected shape: with exchange machines the
// evacuation completes and survivors stay near the volume bound; with
// none, tight clusters fail to evacuate (or strand the plan incomplete).
//
//   ./table9_failure [--check]
//
// --check exits nonzero unless every cell evacuates 3/3 and, at load 0.90,
// k = 0 completes 0/3 while every k >= 1 completes 3/3.

#include <cstdio>
#include <iostream>

#include "control/recovery.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

namespace {
constexpr int kSeeds = 3;

resex::Instance makeCluster(std::uint64_t seed, std::size_t k, double load) {
  resex::SyntheticConfig gen;
  gen.seed = seed;
  gen.machines = 30;
  gen.exchangeMachines = k;
  gen.shardsPerMachine = 14.0;
  gen.loadFactor = load;
  gen.placementSkew = 0.8;
  gen.skuCount = 1;
  gen.shardSizeSigma = 1.0;
  return resex::generateSynthetic(gen);
}
}  // namespace

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("check", "false", "exit nonzero unless the exchange verdicts hold");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("table9_failure");
    return 0;
  }

  std::printf("== T9: machine-failure recovery vs exchange-machine count ==\n");
  std::printf("m=30 homogeneous, machine 1 fails, %d seeds per cell\n\n", kSeeds);

  resex::Table table({"load", "k", "evacuated", "complete", "survivor-bneck",
                      "staged-hops", "phases", "GB", "recovery-mins"});
  bool pass = true;
  for (const double load : {0.75, 0.85, 0.90}) {
    for (const std::size_t k : {0u, 1u, 2u, 4u}) {
      int evacuated = 0;
      int complete = 0;
      resex::OnlineStats bottleneck;
      resex::OnlineStats staged;
      resex::OnlineStats phases;
      resex::OnlineStats gigabytes;
      resex::OnlineStats minutes;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const resex::Instance inst =
            makeCluster(static_cast<std::uint64_t>(seed) * 101 + 7, k, load);
        resex::RecoveryConfig config;
        config.sra.lns.seed = static_cast<std::uint64_t>(seed);
        config.sra.lns.maxIterations = 8000;
        const resex::RecoveryResult r = resex::recoverFromFailure(inst, 1, config);
        if (r.evacuated) ++evacuated;
        if (r.rebalance.scheduleComplete()) ++complete;
        bottleneck.add(r.survivorBottleneck);
        staged.add(static_cast<double>(r.rebalance.schedule.stagedHops));
        phases.add(static_cast<double>(r.rebalance.schedule.phaseCount()));
        gigabytes.add(r.rebalance.schedule.totalBytes / 1e9);
        minutes.add(r.estimatedSeconds / 60.0);
      }
      if (evacuated != kSeeds) pass = false;
      if (load == 0.90 && complete != (k == 0 ? 0 : kSeeds)) pass = false;
      char evacCell[16];
      char completeCell[16];
      std::snprintf(evacCell, sizeof evacCell, "%d/%d", evacuated, kSeeds);
      std::snprintf(completeCell, sizeof completeCell, "%d/%d", complete, kSeeds);
      table.addRow({resex::Table::num(load, 2), resex::Table::num(k), evacCell,
                    completeCell, resex::Table::num(bottleneck.mean(), 4),
                    resex::Table::num(staged.mean(), 0),
                    resex::Table::num(phases.mean(), 0),
                    resex::Table::num(gigabytes.mean(), 1),
                    resex::Table::num(minutes.mean(), 1)});
    }
  }
  table.print();
  std::printf("\n('evacuated' = the dead machine ends empty; 'survivor-bneck' = "
              "worst surviving machine after recovery)\n");
  if (flags.boolean("check") && !pass) {
    std::fprintf(stderr,
                 "CHECK FAILED: a cell did not evacuate 3/3, or at load 0.90 k=0 "
                 "completed or some k>=1 did not complete 3/3\n");
    return 1;
  }
  return 0;
}
