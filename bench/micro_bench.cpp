// Microbenchmarks of the hot paths (google-benchmark).
//
// These are the operations the LNS inner loop performs millions of times;
// regressions here translate directly into worse solutions per second.
//
// Accepts --metrics-out=/--trace-out= (ahead of google-benchmark's own
// flags) so a bench run leaves the same machine-readable record as the
// CLI. Passing --trace-out enables tracing, which costs a little — leave
// it off when measuring.
//
// --lns-bench-out=PATH switches to the LNS solver-loop benchmark instead
// of the google-benchmark suite: it measures solver iterations/sec and
// time-to-target on a T4-sized instance (m=800, n=16000 by default;
// override with --lns-bench-machines= / --lns-bench-seconds=) plus
// solution quality at a fixed seed and iteration count on the
// table1_balance settings, and writes the record as JSON (BENCH_lns.json
// by convention) so the perf trajectory is captured run over run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "obs/context.hpp"
#include "obs/export.hpp"

#include "cluster/assignment.hpp"
#include "index/partition.hpp"
#include "index/varbyte.hpp"
#include "cluster/scheduler.hpp"
#include "core/objective.hpp"
#include "lns/destroy.hpp"
#include "lns/lns.hpp"
#include "lns/repair.hpp"
#include "model/bounds.hpp"
#include "search/builder.hpp"
#include "util/json_writer.hpp"
#include "workload/synthetic.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

Instance benchInstance(std::size_t machines, std::size_t dims = 2) {
  SyntheticConfig config;
  config.seed = 12345;
  config.machines = machines;
  config.exchangeMachines = std::max<std::size_t>(2, machines / 25);
  config.shardsPerMachine = 18.0;
  config.dims = dims;
  config.loadFactor = 0.8;
  return generateSynthetic(config);
}

void BM_ResourceVectorAddUtil(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  ResourceVector load(dims, 40.0);
  const ResourceVector demand(dims, 1.5);
  const ResourceVector cap(dims, 100.0);
  for (auto _ : state) {
    load += demand;
    benchmark::DoNotOptimize(load.utilizationAgainst(cap));
    load -= demand;
  }
}
BENCHMARK(BM_ResourceVectorAddUtil)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AssignmentMoveShard(benchmark::State& state) {
  const Instance instance = benchInstance(100);
  Assignment a(instance);
  Rng rng(1);
  const std::size_t n = instance.shardCount();
  const std::size_t m = instance.machineCount();
  for (auto _ : state) {
    const auto s = static_cast<ShardId>(rng.below(n));
    const auto to = static_cast<MachineId>(rng.below(m));
    a.moveShard(s, to);
  }
}
BENCHMARK(BM_AssignmentMoveShard);

void BM_ObjectiveEvaluate(benchmark::State& state) {
  const Instance instance = benchInstance(static_cast<std::size_t>(state.range(0)));
  const Objective objective = Objective::forInstance(instance);
  Assignment a(instance);
  for (auto _ : state) benchmark::DoNotOptimize(objective.evaluate(a));
}
BENCHMARK(BM_ObjectiveEvaluate)->Arg(50)->Arg(200)->Arg(800);

void BM_BottleneckQueries(benchmark::State& state) {
  // Mutate + query: the exact sequence the LNS inner loop performs. Flat
  // across machine counts once the bottleneck is tracked incrementally.
  const Instance instance = benchInstance(static_cast<std::size_t>(state.range(0)));
  Assignment a(instance);
  Rng rng(1);
  const std::size_t n = instance.shardCount();
  const std::size_t m = instance.machineCount();
  for (auto _ : state) {
    a.moveShard(static_cast<ShardId>(rng.below(n)), static_cast<MachineId>(rng.below(m)));
    benchmark::DoNotOptimize(a.bottleneckUtilization());
    benchmark::DoNotOptimize(a.bottleneckMachine());
  }
}
BENCHMARK(BM_BottleneckQueries)->Arg(50)->Arg(200)->Arg(800);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler sampler(static_cast<std::uint64_t>(state.range(0)), 1.1);
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_GreedyRepair(benchmark::State& state) {
  const Instance instance = benchInstance(100);
  const Objective objective = Objective::forInstance(instance);
  Assignment a(instance);
  Rng rng(3);
  GreedyRepair repair;
  RandomDestroy destroy;
  for (auto _ : state) {
    const auto removed = destroy.destroy(a, 30, rng);
    const bool ok = repair.repair(a, removed, objective, rng);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_GreedyRepair);

void BM_RegretRepair(benchmark::State& state) {
  const Instance instance = benchInstance(100);
  const Objective objective = Objective::forInstance(instance);
  Assignment a(instance);
  Rng rng(3);
  RegretRepair repair(2);
  RandomDestroy destroy;
  for (auto _ : state) {
    const auto removed = destroy.destroy(a, 30, rng);
    const bool ok = repair.repair(a, removed, objective, rng);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RegretRepair);

void BM_LnsIterations(benchmark::State& state) {
  const Instance instance = benchInstance(static_cast<std::size_t>(state.range(0)));
  const Objective objective = Objective::forInstance(instance);
  for (auto _ : state) {
    LnsConfig config;
    config.seed = 11;
    config.maxIterations = 200;
    config.timeBudgetSeconds = 60.0;
    LnsSolver solver(instance, objective, config);
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_LnsIterations)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_SchedulerBuild(benchmark::State& state) {
  const Instance instance = benchInstance(100);
  // A realistic plan: LNS best mapping.
  const Objective objective = Objective::forInstance(instance);
  LnsConfig config;
  config.seed = 5;
  config.maxIterations = 2000;
  LnsSolver solver(instance, objective, config);
  const LnsResult res = solver.solve();
  MigrationScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.build(instance, instance.initialAssignment(), res.bestMapping));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(
          diffMoves(instance.initialAssignment(), res.bestMapping).size()));
}
BENCHMARK(BM_SchedulerBuild)->Unit(benchmark::kMillisecond);

void BM_QuerySimulation(benchmark::State& state) {
  SearchWorkloadConfig config;
  config.seed = 3;
  config.corpus.docCount = 100000;
  config.corpus.termCount = 5000;
  config.shardCount = 100;
  config.machines = 10;
  const SearchWorkload workload(config);
  const Instance instance = workload.buildInstance(config.peakQps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload.simulate(instance.initialAssignment(), config.peakQps, 2000, 9));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_QuerySimulation)->Unit(benchmark::kMillisecond);

void BM_VarbyteDecodeMonotone(benchmark::State& state) {
  std::vector<std::uint32_t> docs;
  Rng rng(5);
  std::uint32_t current = 0;
  for (int i = 0; i < 100000; ++i) {
    current += 1 + static_cast<std::uint32_t>(rng.below(50));
    docs.push_back(current);
  }
  const auto bytes = encodeMonotone(docs);
  for (auto _ : state) benchmark::DoNotOptimize(decodeMonotone(bytes));
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_VarbyteDecodeMonotone)->Unit(benchmark::kMillisecond);

void BM_Bm25TopKDisjunctive(benchmark::State& state) {
  SyntheticDocConfig config;
  config.seed = 3;
  config.docCount = 20000;
  config.termCount = 4000;
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  Rng rng(9);
  const ZipfSampler termPick(config.termCount, 0.9);
  for (auto _ : state) {
    const std::vector<TermId> query{
        static_cast<TermId>(termPick.sample(rng) - 1),
        static_cast<TermId>(termPick.sample(rng) - 1)};
    benchmark::DoNotOptimize(topKDisjunctive(index, query, 10, Bm25Params{}));
  }
}
BENCHMARK(BM_Bm25TopKDisjunctive)->Unit(benchmark::kMicrosecond);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    SyntheticConfig config;
    config.seed = static_cast<std::uint64_t>(state.iterations());
    config.machines = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(generateSynthetic(config));
  }
}
BENCHMARK(BM_SyntheticGeneration)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// LNS solver-loop benchmark (--lns-bench-out): the number that matters for
// the paper's wall-clock-budget claims is solver iterations per second at
// T4 scale, plus time-to-target against the volume lower bound. Solution
// quality at a fixed seed and iteration count is recorded alongside so a
// speedup that costs quality is visible in the same file.

Instance t4Instance(std::size_t machines) {
  SyntheticConfig config;
  config.seed = 12345;
  config.machines = machines;
  config.exchangeMachines = std::max<std::size_t>(2, machines / 25);
  config.shardsPerMachine = 20.0;
  config.dims = 2;
  config.loadFactor = 0.8;
  return generateSynthetic(config);
}

int runLnsBench(const std::string& outPath, std::size_t machines, double seconds) {
  const Instance instance = t4Instance(machines);
  const Objective objective = Objective::forInstance(instance);

  // Throughput: fixed wall-clock budget, effectively unbounded iterations.
  LnsConfig config;
  config.seed = 11;
  config.maxIterations = std::size_t{1} << 40;
  config.timeBudgetSeconds = seconds;
  LnsSolver throughputSolver(instance, objective, config);
  const LnsResult throughput = throughputSolver.solve();
  const double itersPerSec =
      throughput.stats.seconds > 0.0
          ? static_cast<double>(throughput.stats.iterations) / throughput.stats.seconds
          : 0.0;

  // Time-to-target: stop as soon as the best bottleneck is within 5% of the
  // volume lower bound (doubled budget so slow runs still report a time).
  const double target = bottleneckLowerBound(instance) * 1.05;
  LnsConfig targetConfig = config;
  targetConfig.targetBottleneck = target;
  targetConfig.timeBudgetSeconds = seconds * 2.0;
  LnsSolver targetSolver(instance, objective, targetConfig);
  const LnsResult targetRun = targetSolver.solve();
  const bool reached = targetRun.bestScore.vacancyDeficit == 0 &&
                       targetRun.bestScore.bottleneckUtil <= target + 1e-9;

  // Quality guard: best bottleneck at fixed seed + iteration count on the
  // table1_balance generator settings (m=50+4, ~16 shards/machine).
  struct QualityRow {
    double load;
    double bottleneck;
  };
  std::vector<QualityRow> quality;
  for (const double load : {0.60, 0.70, 0.80, 0.88}) {
    SyntheticConfig gen;
    gen.seed = 1017;
    gen.machines = 50;
    gen.exchangeMachines = 4;
    gen.shardsPerMachine = 16.0;
    gen.loadFactor = load;
    const Instance inst = generateSynthetic(gen);
    const Objective obj = Objective::forInstance(inst);
    LnsConfig qualityConfig;
    qualityConfig.seed = 11;
    qualityConfig.maxIterations = 8000;
    qualityConfig.timeBudgetSeconds = 600.0;
    LnsSolver solver(inst, obj, qualityConfig);
    quality.push_back({load, solver.solve().bestScore.bottleneckUtil});
  }

  JsonWriter json;
  json.beginObject();
  json.key("instance");
  json.beginObject()
      .field("machines", static_cast<std::uint64_t>(instance.machineCount()))
      .field("exchange", static_cast<std::uint64_t>(instance.exchangeCount()))
      .field("shards", static_cast<std::uint64_t>(instance.shardCount()))
      .field("dims", static_cast<std::uint64_t>(instance.dims()))
      .field("load_factor", instance.loadFactor())
      .field("seed", static_cast<std::uint64_t>(12345))
      .endObject();
  json.key("throughput");
  json.beginObject()
      .field("budget_seconds", seconds)
      .field("iterations", static_cast<std::uint64_t>(throughput.stats.iterations))
      .field("seconds", throughput.stats.seconds)
      .field("iters_per_sec", itersPerSec)
      .field("accepted", static_cast<std::uint64_t>(throughput.stats.accepted))
      .field("best_bottleneck", throughput.bestScore.bottleneckUtil)
      .endObject();
  json.key("time_to_target");
  json.beginObject()
      .field("target_bottleneck", target)
      .field("reached", reached)
      .field("seconds", targetRun.stats.seconds)
      .field("iterations", static_cast<std::uint64_t>(targetRun.stats.iterations))
      .field("best_bottleneck", targetRun.bestScore.bottleneckUtil)
      .endObject();
  json.key("quality_table1");
  json.beginArray();
  for (const QualityRow& row : quality) {
    json.beginObject()
        .field("load_factor", row.load)
        .field("iterations", static_cast<std::uint64_t>(8000))
        .field("bottleneck", row.bottleneck)
        .endObject();
  }
  json.endArray();
  json.endObject();

  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "lns-bench: cannot open %s\n", outPath.c_str());
    return 1;
  }
  out << json.str() << "\n";
  std::printf("lns-bench: %.0f iters/sec (%zu iters in %.2fs), best=%.4f -> %s\n",
              itersPerSec, throughput.stats.iterations, throughput.stats.seconds,
              throughput.bestScore.bottleneckUtil, outPath.c_str());
  return 0;
}

}  // namespace
}  // namespace resex

namespace {

/// Pops `--name=value` / `--name value` from argv; returns true when found.
bool takeFlag(int& argc, char** argv, const char* name, std::string& out) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    int consumed = 0;
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      out = argv[i] + prefix.size();
      consumed = 1;
    } else if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      out = argv[i + 1];
      consumed = 2;
    }
    if (consumed) {
      for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
      argc -= consumed;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metricsOut, traceOut;
  takeFlag(argc, argv, "--metrics-out", metricsOut);
  takeFlag(argc, argv, "--trace-out", traceOut);
  if (!traceOut.empty()) resex::obs::TraceRegistry::global().setEnabled(true);

  std::string lnsBenchOut, lnsMachines, lnsSeconds;
  takeFlag(argc, argv, "--lns-bench-out", lnsBenchOut);
  takeFlag(argc, argv, "--lns-bench-machines", lnsMachines);
  takeFlag(argc, argv, "--lns-bench-seconds", lnsSeconds);
  if (!lnsBenchOut.empty()) {
    const std::size_t machines =
        lnsMachines.empty() ? 800 : static_cast<std::size_t>(std::stoul(lnsMachines));
    const double seconds = lnsSeconds.empty() ? 5.0 : std::stod(lnsSeconds);
    int rc = resex::runLnsBench(lnsBenchOut, machines, seconds);
    if (!metricsOut.empty() && !resex::obs::writeMetricsFile(metricsOut)) rc = 1;
    if (!traceOut.empty() && !resex::obs::writeTraceFile(traceOut)) rc = 1;
    return rc;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bool ok = true;
  if (!metricsOut.empty()) ok = resex::obs::writeMetricsFile(metricsOut) && ok;
  if (!traceOut.empty()) ok = resex::obs::writeTraceFile(traceOut) && ok;
  return ok ? 0 : 1;
}
