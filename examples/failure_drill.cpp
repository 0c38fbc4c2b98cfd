// Failure drill: kill a machine on a loaded cluster, plan the recovery,
// then *execute* the recovery schedule under injected faults — copy
// failures retried with backoff, and (optionally) a second machine
// crashing mid-recovery, which forces the executor to replan around the
// cascade. Every fault is seeded, so a drill reproduces bit-for-bit.
//
//   ./failure_drill [--machines N] [--exchange K] [--load F] [--victim M]
//                   [--fault-seed S] [--copy-fail P] [--crash-at m:p:f,...]
//
// --crash-at takes machine:phase:fraction triples (phase counts executed
// phases globally, including replanned schedules). The default "auto"
// crashes the victim's neighbour halfway through the recovery; pass
// --crash-at none for a cascade-free drill.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "control/executor.hpp"
#include "control/recovery.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

namespace {

std::vector<resex::MachineCrashEvent> parseCrashList(const std::string& spec) {
  std::vector<resex::MachineCrashEvent> events;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    resex::MachineCrashEvent event;
    if (std::sscanf(item.c_str(), "%u:%zu:%lf", &event.machine, &event.phase,
                    &event.fraction) != 3)
      throw std::runtime_error("flag --crash-at: expected machine:phase:fraction, got '" +
                               item + "'");
    events.push_back(event);
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("machines", "30", "regular machines")
      .define("exchange", "2", "exchange machines")
      .define("load", "0.85", "load factor before the failure")
      .define("victim", "1", "machine id that fails before planning")
      .define("seed", "13", "random seed of the cluster")
      .define("iters", "12000", "LNS iterations (plan and replans)")
      .define("fault-seed", "0", "seed of every injected fault draw")
      .define("copy-fail", "0.15", "per-attempt copy failure probability")
      .define("crash-at", "auto",
              "cascading crashes as machine:phase:fraction,... ('none' disables, "
              "'auto' kills the victim's neighbour mid-recovery)")
      .define("max-retries", "3", "copy re-attempts per move")
      .define("max-replans", "2", "mid-flight replans before degrading");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("failure_drill");
    return 0;
  }

  resex::SyntheticConfig gen;
  gen.seed = flags.count<std::uint64_t>("seed");
  gen.machines = flags.count("machines");
  gen.exchangeMachines = flags.count("exchange");
  gen.loadFactor = flags.real("load");
  gen.skuCount = 1;
  gen.shardSizeSigma = 1.0;
  const resex::Instance instance = resex::generateSynthetic(gen);
  const auto victim = flags.count<resex::MachineId>("victim");

  std::printf("cluster: %zu machines (+%zu exchange), %zu shards, load %.2f\n",
              instance.regularCount(), instance.exchangeCount(),
              instance.shardCount(), instance.loadFactor());

  std::size_t strandedShards = 0;
  double strandedLoad = 0.0;
  for (resex::ShardId s = 0; s < instance.shardCount(); ++s) {
    if (instance.initialMachineOf(s) == victim) {
      ++strandedShards;
      strandedLoad += instance.shard(s).demand[0];
    }
  }
  std::printf("machine %u fails: %zu shards (%.1f%% of capacity) must evacuate\n\n",
              victim, strandedShards,
              100.0 * strandedLoad / instance.machine(victim).capacity[0]);

  // -- Plan the recovery (polish off: replans must be deterministic). -----
  resex::RecoveryConfig config;
  config.sra.lns.seed = gen.seed + 1;
  config.sra.lns.maxIterations = flags.count("iters");
  config.sra.polish = false;
  const resex::RecoveryResult r = resex::recoverFromFailure(instance, victim, config);

  resex::Table planTable({"plan metric", "value"});
  planTable.addRow({"evacuated", r.evacuated ? "yes" : "NO"});
  planTable.addRow({"schedule complete", r.rebalance.scheduleComplete() ? "yes" : "NO"});
  planTable.addRow({"survivor bottleneck", resex::Table::num(r.survivorBottleneck, 4)});
  planTable.addRow({"phases", resex::Table::num(r.rebalance.schedule.phaseCount())});
  planTable.addRow({"staged hops", resex::Table::num(r.rebalance.schedule.stagedHops)});
  planTable.addRow(
      {"bytes planned (GB)", resex::Table::num(r.rebalance.schedule.totalBytes / 1e9, 1)});
  planTable.addRow(
      {"estimated clean run (min)", resex::Table::num(r.estimatedSeconds / 60.0, 1)});
  planTable.print();

  // -- Assemble the fault plan. -------------------------------------------
  resex::FaultPlan faults;
  faults.seed = flags.count<std::uint64_t>("fault-seed");
  faults.copyFailureProbability = flags.real("copy-fail");
  const std::string crashSpec = flags.str("crash-at");
  if (crashSpec == "auto") {
    resex::MachineCrashEvent cascade;
    cascade.machine =
        static_cast<resex::MachineId>((victim + 1) % instance.regularCount());
    cascade.phase = r.rebalance.schedule.phaseCount() > 1 ? 1 : 0;
    cascade.fraction = 0.5;
    faults.crashes.push_back(cascade);
  } else if (crashSpec != "none") {
    faults.crashes = parseCrashList(crashSpec);
  }

  resex::ExecutorConfig exec;
  exec.maxRetries = flags.count("max-retries");
  exec.maxReplans = flags.count("max-replans");
  exec.sra = config.sra;

  // -- Execute under faults, twice: the reports must match bit-for-bit. ---
  // The victim stays crashed in every replan, so it never counts as
  // compensation.
  const resex::MachineId victims[] = {victim};
  const resex::Instance crippled =
      instance.afterCrash(victims, instance.initialAssignment());
  const resex::MigrationExecutor executor(exec);
  const resex::ExecutionReport run = executor.execute(crippled, r.rebalance.schedule, faults);
  const resex::ExecutionReport rerun =
      executor.execute(crippled, r.rebalance.schedule, faults);

  std::printf("\nexecution under faults (seed %llu, copy-fail %.2f, %zu cascade crash(es)):\n",
              static_cast<unsigned long long>(faults.seed),
              faults.copyFailureProbability, faults.crashes.size());
  resex::Table table({"execution metric", "value"});
  table.addRow({"phases executed", resex::Table::num(run.phasesExecuted)});
  table.addRow({"moves committed", resex::Table::num(run.movesCommitted)});
  table.addRow({"copy retries", resex::Table::num(run.retries)});
  table.addRow({"aborted moves", resex::Table::num(run.abortedMoves)});
  table.addRow({"replans", resex::Table::num(run.replans)});
  table.addRow({"machines crashed mid-flight", resex::Table::num(run.crashedMachines.size())});
  table.addRow({"committed bytes (GB)", resex::Table::num(run.committedBytes / 1e9, 2)});
  table.addRow({"wasted bytes (GB)", resex::Table::num(run.wastedBytes / 1e9, 2)});
  table.addRow({"simulated wall clock (min)",
                resex::Table::num(run.simulatedSeconds / 60.0, 1)});
  table.addRow({"unexecuted moves", resex::Table::num(run.unexecutedMoves.size())});
  table.addRow({"degraded", run.degraded ? "YES (partial result)" : "no"});
  table.print();

  // -- Audit. -------------------------------------------------------------
  bool ok = true;
  auto fail = [&ok](const std::string& why) {
    std::printf("audit FAIL: %s\n", why.c_str());
    ok = false;
  };

  const bool sameRuns = rerun.finalMapping == run.finalMapping &&
                        rerun.retries == run.retries &&
                        rerun.committedBytes == run.committedBytes &&
                        rerun.wastedBytes == run.wastedBytes &&
                        rerun.replans == run.replans;
  if (!sameRuns) fail("rerun with the same seeds diverged (nondeterminism)");

  // Every committed plan must replay cleanly against its own instance.
  for (const resex::PlanRecord& plan : run.plans) {
    const resex::Instance planInstance =
        crippled.afterCrash(plan.crashedBefore, plan.start);
    const auto problems =
        resex::verifySchedule(planInstance, plan.start, plan.target, plan.committed);
    if (!problems.empty()) fail("committed phases do not verify: " + problems[0]);
  }

  // Survivors stay capacity-valid on EVERY run, degraded or not — the
  // executor never lets a machine exceed max(capacity, its starting load).
  {
    resex::Assignment start(crippled);
    resex::Assignment after(crippled, run.finalMapping);
    for (resex::MachineId m = 0; m < crippled.machineCount(); ++m) {
      bool dead = crippled.machine(m).crashed;
      for (const resex::MachineId c : run.crashedMachines) dead |= (m == c);
      if (dead) continue;
      if (after.utilizationOf(m) > std::max(1.0, start.utilizationOf(m)) + 1e-9)
        fail("survivor machine " + std::to_string(m) + " over capacity");
    }
  }
  // A non-degraded run additionally leaves every corpse empty.
  if (!run.degraded) {
    for (resex::ShardId s = 0; s < crippled.shardCount(); ++s) {
      const resex::MachineId m = run.finalMapping[s];
      if (m == victim) fail("shard left on the original victim");
      for (const resex::MachineId c : run.crashedMachines)
        if (m == c) fail("shard left on a crashed machine");
    }
  } else if (run.unexecutedMoves.empty() && !run.replanFailed) {
    fail("degraded run reports neither unexecuted moves nor a failed replan");
  }

  std::printf("\naudit: %s\n", ok ? "drill verified (committed phases replay, "
                                    "determinism holds)"
                                  : "PROBLEMS FOUND");
  std::printf("hint: --crash-at none for a cascade-free run; --copy-fail 0.9 "
              "--max-retries 0 to watch graceful degradation.\n");
  return ok ? 0 : 1;
}
