// Search-engine scenario: a simulated day of diurnal query traffic over a
// document-partitioned index. Each hour the cluster is rebalanced with SRA
// (or left alone with --rebalance=off) and tail latency is measured with
// the query simulator.
//
//   ./search_engine_day [--hours N] [--qps Q] [--rebalance on|off]

#include <cstdio>
#include <iostream>

#include "core/sra.hpp"
#include "search/builder.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/diurnal.hpp"

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("hours", "12", "hours of the day to simulate")
      .define("qps", "1200", "peak queries per second")
      .define("shards", "240", "index shards")
      .define("machines", "16", "regular machines")
      .define("rebalance", "on", "run SRA each hour (on/off)")
      .define("seed", "11", "random seed");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("search_engine_day");
    return 0;
  }

  resex::SearchWorkloadConfig config;
  config.seed = flags.count<std::uint64_t>("seed");
  config.shardCount = flags.count("shards");
  config.machines = flags.count("machines");
  config.exchangeMachines = 2;
  config.peakQps = flags.real("qps");
  config.cpuLoadFactorAtPeak = 0.85;
  config.placementSkew = 1.0;
  const resex::SearchWorkload workload(config);

  resex::DiurnalModel diurnal;
  const bool rebalance = flags.boolean("rebalance");
  const auto hours = flags.count("hours");

  std::printf("corpus: %llu docs, %u terms; %zu shards on %zu machines (+%zu)\n\n",
              static_cast<unsigned long long>(workload.corpus().docCount()),
              workload.corpus().termCount(), config.shardCount, config.machines,
              config.exchangeMachines);

  resex::Table table(
      {"hour", "qps", "bottleneck", "p50 ms", "p99 ms", "moved", "phases"});

  const resex::Instance bringUp = workload.buildInstance(config.peakQps);
  std::vector<resex::MachineId> mapping = bringUp.initialAssignment();

  for (std::size_t hour = 0; hour < hours; ++hour) {
    const double qps =
        config.peakQps * diurnal.multiplier(static_cast<double>(hour) * 2.0) /
        diurnal.multiplier(diurnal.peakHour);
    const resex::Instance instance = workload.buildInstance(qps, &mapping);

    std::size_t moved = 0;
    std::size_t phases = 0;
    if (rebalance) {
      resex::SraConfig sraConfig;
      sraConfig.lns.seed = config.seed + hour;
      sraConfig.lns.maxIterations = 6000;
      resex::Sra sra(sraConfig);
      const resex::RebalanceResult r = sra.rebalance(instance);
      mapping = r.finalMapping;
      moved = r.after.movedShards;
      phases = r.schedule.phaseCount();
    } else {
      mapping = instance.initialAssignment();
    }

    resex::Assignment state(instance, mapping);
    const auto sim = workload.simulate(mapping, qps, 8000, config.seed + hour * 77);
    table.addRow({resex::Table::num(hour), resex::Table::num(qps, 0),
                  resex::Table::num(state.bottleneckUtilization(), 3),
                  resex::Table::num(sim.p50() * 1e3, 2),
                  resex::Table::num(sim.p99() * 1e3, 2), resex::Table::num(moved),
                  resex::Table::num(phases)});
  }
  table.print();
  std::printf("\nrebalance=%s — rerun with the other setting to compare p99.\n",
              rebalance ? "on" : "off");
  return 0;
}
