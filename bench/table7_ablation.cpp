// T7 — Ablation of SRA's design choices.
//
// One tight instance, one knob toggled per row: adaptive operator weights,
// each destroy operator in isolation, each repair operator in isolation,
// the final polish, and two-hop staging in the scheduler. Expected shape:
// the full configuration is at or near the best on bottleneck; staging off
// breaks schedule completeness on tight instances; vacancy-drain off
// leaves the compensation unreachable when exchange machines were used.

#include <cstdio>
#include <functional>

#include "core/sra.hpp"
#include "lns/destroy.hpp"
#include "lns/repair.hpp"
#include "model/bounds.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

namespace {

constexpr std::size_t kIterations = 10000;

resex::SraConfig baseConfig() {
  resex::SraConfig config;
  config.lns.seed = 5;
  config.lns.maxIterations = kIterations;
  return config;
}

}  // namespace

int main() {
  // The tight homogeneous setting of F2: large shards and high load make
  // transient constraints bite, so the scheduling-side ablations (staging,
  // vacancy-drain) show their effect, not just the search-side ones.
  resex::SyntheticConfig gen;
  gen.seed = 2020;
  gen.machines = 50;
  gen.exchangeMachines = 2;
  gen.shardsPerMachine = 14.0;
  gen.loadFactor = 0.90;
  gen.placementSkew = 1.2;
  gen.skuCount = 1;
  gen.shardSizeSigma = 1.1;
  gen.maxShardFraction = 0.6;
  const resex::Instance instance = resex::generateSynthetic(gen);

  std::printf("== T7: ablation of SRA design choices ==\n");
  std::printf("m=%zu (+%zu), %zu shards, load %.2f, lower bound %.4f, %zu iters\n\n",
              instance.regularCount(), instance.exchangeCount(),
              instance.shardCount(), instance.loadFactor(),
              resex::bottleneckLowerBound(instance), kIterations);

  struct Variant {
    const char* name;
    std::function<resex::Sra()> make;
  };

  const Variant variants[] = {
      {"full SRA", [] { return resex::Sra(baseConfig()); }},
      {"no adaptive weights (uniform ALNS)",
       [] {
         resex::SraConfig c = baseConfig();
         c.lns.adaptiveWeights = false;
         return resex::Sra(c);
       }},
      {"no polish",
       [] {
         resex::SraConfig c = baseConfig();
         c.polish = false;
         return resex::Sra(c);
       }},
      {"no staging (direct moves only)",
       [] {
         resex::SraConfig c = baseConfig();
         c.scheduler.allowStaging = false;
         return resex::Sra(c);
       }},
  };

  resex::Table table(
      {"variant", "bottleneck", "vs-LB", "moved", "staged", "phases", "complete"});
  const double lb = resex::bottleneckLowerBound(instance);
  auto addRow = [&table, lb](const char* name, const resex::RebalanceResult& r) {
    table.addRow({name, resex::Table::num(r.after.bottleneckUtil, 4),
                  resex::Table::pct(r.after.bottleneckUtil / lb - 1.0, 1),
                  resex::Table::num(r.after.movedShards),
                  resex::Table::num(r.schedule.stagedHops),
                  resex::Table::num(r.schedule.phaseCount()),
                  r.scheduleComplete() ? "yes" : "NO"});
  };

  for (const Variant& variant : variants) {
    resex::Sra sra = variant.make();
    addRow(variant.name, sra.rebalance(instance));
  }

  // Operator isolation: a single destroy (plus vacancy-drain, which the
  // compensation constraint needs) and a single repair.
  struct OpVariant {
    const char* name;
    std::function<void(resex::LnsSolver&)> install;
  };
  const OpVariant opVariants[] = {
      {"destroy: random only",
       [](resex::LnsSolver& s) {
         s.addDestroy(std::make_unique<resex::RandomDestroy>());
         s.addDestroy(std::make_unique<resex::VacancyDestroy>());
       }},
      {"destroy: worst-machine only",
       [](resex::LnsSolver& s) {
         s.addDestroy(std::make_unique<resex::WorstMachineDestroy>());
         s.addDestroy(std::make_unique<resex::VacancyDestroy>());
       }},
      {"destroy: shaw only",
       [](resex::LnsSolver& s) {
         s.addDestroy(std::make_unique<resex::ShawDestroy>());
         s.addDestroy(std::make_unique<resex::VacancyDestroy>());
       }},
      {"destroy: no vacancy-drain",
       [](resex::LnsSolver& s) {
         s.addDestroy(std::make_unique<resex::RandomDestroy>());
         s.addDestroy(std::make_unique<resex::WorstMachineDestroy>());
         s.addDestroy(std::make_unique<resex::ShawDestroy>());
       }},
      {"repair: greedy only",
       [](resex::LnsSolver& s) {
         s.addRepair(std::make_unique<resex::GreedyRepair>());
       }},
      {"repair: regret-2 only",
       [](resex::LnsSolver& s) {
         s.addRepair(std::make_unique<resex::RegretRepair>(2));
       }},
  };

  const resex::Objective objective = resex::Objective::forInstance(instance);
  for (const OpVariant& variant : opVariants) {
    resex::LnsConfig lnsConfig = baseConfig().lns;
    resex::LnsSolver solver(instance, objective, lnsConfig);
    variant.install(solver);
    const resex::LnsResult res = solver.solve();
    // Report the raw LNS end state (scheduled like SRA would, default opts).
    std::vector<resex::MachineId> target = res.bestScore.vacancyDeficit == 0
                                               ? res.bestMapping
                                               : instance.initialAssignment();
    const resex::RebalanceResult r = resex::finalizeResult(
        instance, variant.name, std::move(target), resex::SchedulerOptions{}, 0.0);
    addRow(variant.name, r);
  }

  table.print();
  std::printf("\n(rows below the first block are raw LNS without polish, so "
              "compare them to the 'no polish' row)\n");
  return 0;
}
