// resex_cli: operate on instance files from the command line.
//
//   resex_cli gen        --out inst.txt [--machines N --exchange K --load F ...]
//   resex_cli solve      inst.txt [--algo sra|swap-ls|greedy|ffd] [--json out.json]
//   resex_cli verify     inst.txt solution.txt
//   resex_cli info       inst.txt
//   resex_cli quickstart [--machines N --load F ...]
//
// Solutions are written as one machine id per line (shard order), so they
// diff and archive cleanly.
//
// Every command honors --metrics-out / --trace-out: on exit the process
// writes a metrics snapshot (JSON or Prometheus text) and a Chrome
// trace_event array, so each run leaves a machine-readable record.
// `quickstart` exercises the whole stack — controller epoch (trigger ->
// LNS -> schedule) plus a mini search-engine query batch — and is the
// scenario the observability docs reference.

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "control/controller.hpp"
#include "core/baselines.hpp"
#include "core/sra.hpp"
#include "index/partition.hpp"
#include "metrics/report.hpp"
#include "model/bounds.hpp"
#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"
#include "workload/synthetic.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace resex;

std::vector<MachineId> readSolution(const std::string& path, std::size_t shards) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open solution file " + path);
  std::vector<MachineId> mapping;
  MachineId m = 0;
  while (in >> m) mapping.push_back(m);
  if (mapping.size() != shards)
    throw std::runtime_error("solution has " + std::to_string(mapping.size()) +
                             " entries; instance has " + std::to_string(shards));
  return mapping;
}

void writeSolution(const std::string& path, const std::vector<MachineId>& mapping) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  for (const MachineId m : mapping) out << m << "\n";
}

int cmdGen(Flags& flags) {
  SyntheticConfig config;
  config.seed = flags.count<std::uint64_t>("seed");
  config.machines = flags.count("machines");
  config.exchangeMachines = flags.count("exchange");
  config.shardsPerMachine = flags.real("shards-per-machine");
  config.dims = flags.count("dims");
  config.loadFactor = flags.real("load");
  config.placementSkew = flags.real("skew");
  config.replicationFactor = flags.count("replication");
  const Instance instance = generateSynthetic(config);
  instance.saveToFile(flags.str("out"));
  std::printf("wrote %s: %zu machines (+%zu exchange), %zu shards, load %.3f\n",
              flags.str("out").c_str(), instance.regularCount(),
              instance.exchangeCount(), instance.shardCount(),
              instance.loadFactor());
  return 0;
}

int cmdInfo(const Instance& instance) {
  Assignment state(instance);
  const BalanceMetrics metrics = measureBalance(state);
  std::printf("machines:     %zu regular + %zu exchange\n", instance.regularCount(),
              instance.exchangeCount());
  std::printf("shards:       %zu (%s)\n", instance.shardCount(),
              instance.hasReplication() ? "replicated" : "unreplicated");
  std::printf("dims:         %zu\n", instance.dims());
  std::printf("load factor:  %.4f\n", instance.loadFactor());
  std::printf("lower bound:  %.4f\n", bottleneckLowerBound(instance));
  std::printf("initial:      %s\n", metrics.summary().c_str());
  return 0;
}

int cmdSolve(const Instance& instance, Flags& flags) {
  const std::string algo = flags.str("algo");
  std::unique_ptr<Rebalancer> rebalancer;
  if (algo == "sra") {
    SraConfig config;
    config.lns.seed = flags.count<std::uint64_t>("seed");
    config.lns.maxIterations = flags.count("iters");
    config.lns.timeBudgetSeconds = flags.real("budget");
    rebalancer = std::make_unique<Sra>(config);
  } else if (algo == "swap-ls") {
    rebalancer = std::make_unique<SwapLocalSearch>();
  } else if (algo == "greedy") {
    rebalancer = std::make_unique<GreedyRebalancer>();
  } else if (algo == "ffd") {
    rebalancer = std::make_unique<FfdRepack>();
  } else {
    std::fprintf(stderr, "unknown --algo '%s' (sra|swap-ls|greedy|ffd)\n",
                 algo.c_str());
    return 2;
  }

  const RebalanceResult result = rebalancer->rebalance(instance);
  std::cout << renderReport(result);

  const auto problems = verifySchedule(instance, instance.initialAssignment(),
                                       result.targetMapping, result.schedule);
  if (problems.empty()) {
    std::printf("audit:     ok\n");
  } else {
    std::printf("audit:     %zu problem(s); first: %s\n", problems.size(),
                problems[0].c_str());
  }

  if (!flags.str("solution").empty()) {
    writeSolution(flags.str("solution"), result.finalMapping);
    std::printf("solution written to %s\n", flags.str("solution").c_str());
  }
  if (!flags.str("json").empty()) {
    std::ofstream out(flags.str("json"));
    out << toJson(result, flags.boolean("json-moves")) << "\n";
    std::printf("json written to %s\n", flags.str("json").c_str());
  }
  return problems.empty() ? 0 : 1;
}

int cmdQuickstart(Flags& flags) {
  // One controller epoch over a skewed synthetic cluster: trigger -> LNS
  // solve -> migration schedule -> execution, all instrumented.
  SyntheticConfig gen;
  gen.seed = flags.count<std::uint64_t>("seed");
  gen.machines = flags.count("machines");
  gen.exchangeMachines = flags.count("exchange");
  gen.loadFactor = flags.real("load");
  gen.placementSkew = 1.0;
  const Instance instance = generateSynthetic(gen);
  std::printf("instance:   %zu machines (+%zu exchange), %zu shards, load %.2f\n",
              instance.regularCount(), instance.exchangeCount(),
              instance.shardCount(), instance.loadFactor());

  ControllerConfig control;
  control.trigger.always = true;  // the tour always shows a rebalance
  control.sra.lns.seed = gen.seed;
  control.sra.lns.maxIterations = flags.count("iters");
  control.sra.lns.timeBudgetSeconds = flags.real("budget");
  ClusterController controller(control);
  const EpochReport report = controller.step(instance);
  std::printf("rebalance:  %s -> %s (%.2f MB moved, %zu staged hops)\n",
              report.before.summary().c_str(), report.after.summary().c_str(),
              report.scheduleBytes / 1e6, report.stagedHops);

  // A mini search-engine query batch so the query-path instruments fire.
  SyntheticDocConfig docs;
  docs.seed = gen.seed;
  docs.docCount = 20000;
  docs.termCount = 4000;
  const InvertedIndex index(docs.termCount, generateDocuments(docs));
  Rng rng(gen.seed);
  const ZipfSampler termPick(docs.termCount, 0.9);
  const auto queryCount = flags.count("queries");
  for (std::size_t q = 0; q < queryCount; ++q) {
    const std::vector<TermId> query{
        static_cast<TermId>(termPick.sample(rng) - 1),
        static_cast<TermId>(termPick.sample(rng) - 1)};
    topKDisjunctive(index, query, 10, Bm25Params{});
  }
  const auto& latency =
      obs::MetricsRegistry::global().histogram("query.latency_us");
  std::printf("queries:    %zu executed, latency p50 <= %.0fus, p99 <= %.0fus\n",
              queryCount, latency.quantile(0.50), latency.quantile(0.99));
  return 0;
}

int cmdVerify(const Instance& instance, const std::string& solutionPath) {
  const std::vector<MachineId> mapping =
      readSolution(solutionPath, instance.shardCount());
  Assignment state(instance, mapping);
  const auto problems = state.validate(/*requireCapacity=*/true);
  const BalanceMetrics metrics = measureBalance(state);
  std::printf("mapping:  %s\n", metrics.summary().c_str());
  std::size_t vacant = state.vacantCount();
  const bool compensated = vacant >= instance.vacancyTarget();
  std::printf("vacancy:  %zu vacant, %zu required -> %s\n", vacant,
              instance.vacancyTarget(), compensated ? "ok" : "VIOLATED");
  if (!problems.empty()) {
    for (const auto& p : problems) std::printf("problem:  %s\n", p.c_str());
    return 1;
  }
  std::printf("capacity + anti-affinity: ok\n");
  return compensated ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("out", "instance.txt", "gen: output instance path")
      .define("machines", "50", "gen: regular machines")
      .define("exchange", "4", "gen: exchange machines")
      .define("shards-per-machine", "16", "gen: physical shards per machine")
      .define("dims", "2", "gen: resource dimensions")
      .define("load", "0.8", "gen: load factor")
      .define("skew", "1.0", "gen: placement skew")
      .define("replication", "1", "gen: replicas per logical shard")
      .define("algo", "sra", "solve: sra|swap-ls|greedy|ffd")
      .define("seed", "1", "random seed")
      .define("iters", "20000", "solve: LNS iterations")
      .define("budget", "30", "solve: LNS seconds")
      .define("solution", "", "solve: write final mapping here")
      .define("json", "", "solve: write JSON report here")
      .define("json-moves", "false", "solve: include per-move detail in JSON")
      .define("queries", "2000", "quickstart: search queries to run")
      .define("obs-port", "-1",
              "serve an HTTP introspection plane on 127.0.0.1:<port> "
              "(0 = ephemeral, -1 = off); enables request-scoped tracing")
      .define("obs-hold-seconds", "0",
              "keep the process (and the introspection plane) alive this "
              "long after the command finishes, for interactive curling");
  resex::obs::defineExportFlags(flags);

  try {
    flags.parse(argc, argv);
    if (flags.helpRequested() || flags.positional().empty()) {
      std::cout << "usage: resex_cli <gen|info|solve|verify|quickstart> [args] "
                   "[flags]\n\n"
                << flags.helpText("resex_cli");
      return flags.helpRequested() ? 0 : 2;
    }
    resex::obs::applyExportFlags(flags);
    const auto http = resex::obs::serveIntrospection(
        static_cast<int>(flags.integer("obs-port")));
    if (http) {
      resex::obs::TraceRegistry::global().setEnabled(true);
      std::printf("introspection plane on http://127.0.0.1:%d "
                  "(/metrics /metrics.json /traces /debug/slo /healthz)\n",
                  http->port());
    }
    const std::string command = flags.positional()[0];
    int status = 2;
    if (command == "gen") {
      status = cmdGen(flags);
    } else if (command == "quickstart") {
      status = cmdQuickstart(flags);
    } else if (command == "info" || command == "solve" || command == "verify") {
      if (flags.positional().size() < 2) {
        std::fprintf(stderr, "%s requires an instance file\n", command.c_str());
        return 2;
      }
      const Instance instance = Instance::loadFromFile(flags.positional()[1]);
      if (command == "info") {
        status = cmdInfo(instance);
      } else if (command == "solve") {
        status = cmdSolve(instance, flags);
      } else {
        if (flags.positional().size() < 3) {
          std::fprintf(stderr, "verify requires an instance and a solution file\n");
          return 2;
        }
        status = cmdVerify(instance, flags.positional()[2]);
      }
    } else {
      std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
      return 2;
    }
    if (const double hold = flags.real("obs-hold-seconds"); http && hold > 0.0) {
      std::printf("holding %.0fs for introspection (ctrl-c to stop early)\n", hold);
      std::this_thread::sleep_for(std::chrono::duration<double>(hold));
    }
    if (!resex::obs::writeExportFlags(flags)) return status == 0 ? 1 : status;
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
