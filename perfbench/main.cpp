// resexbench — one run of one perfbench workload.
//
//   resexbench --workload <cold_scan|live_migration>
//              --seed N --seconds S --trace <0|1> [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with nothing instrumented;
// --trace 1 is a separate run that records spans around calls into each
// layer's public functions and reports the per-layer metrics. The last
// stdout line is {"correct", "attempted", "failed", "metrics": {name:
// value}}; perfbench/run.py attaches the units BENCHMARK.json declares.
// A run record with host facts, sample counts and any correctness problems
// goes to DIR/<workload>-seed<N>-trace<T>.json, and a traced run's spans to
// DIR/<workload>-seed<N>.spans.json. Exit status: 0 correct, 1 a
// correctness violation (the result line still prints), 2 the run could
// not complete (no result line).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "index/simd_unpack.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

#ifndef RESEX_BENCH_BUILD_TYPE
#define RESEX_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef RESEX_BENCH_COMPILER
#define RESEX_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace resex;
using namespace resex::perfbench;

// Must match BENCHMARK.json (run.py checks the two agree on every run).
const char* const kEndToEnd[] = {"setup_s",  "peak_rss_mb",  "ok_frac",   "p50_ms",
                                 "p99_ms",   "capacity_qps", "bottleneck"};

const char* const kPerLayer[] = {
    "net.transport_us.p50", "net.transport_us.p99", "net.flush_us.p50",
    "net.drain_us.p50", "net.responses_per_drain", "net.read_pauses",
    "net.protocol_errors", "net.error_frames",
    "serve.submit_us.p50", "serve.submit_us.p99", "serve.complete_us.p50",
    "serve.complete_us.p99", "serve.wait_us.p50", "serve.wait_us.p99",
    "serve.busy_frac.max", "serve.busy_frac.mean", "serve.queue_depth.max",
    "serve.cache_hit_ratio", "serve.cache_entries_invalidated",
    "serve.shed_tasks", "serve.expired_queries", "serve.steady_p99_ms",
    "serve.migration_p99_ms", "serve.migration_queries",
    "index.exec_us.p50", "index.exec_us.p99", "index.postings_per_query",
    "index.blocks_decoded_per_query", "index.skip_ratio",
    "index.heap_prunes_per_query", "index.segment_load_s",
    "lns.search_s", "lns.iters_per_s", "lns.accept_ratio",
    "lns.repair_fail_ratio",
    "core.rebalance_s",
    "cluster.schedule_s", "cluster.phases", "cluster.staged_hops",
    "cluster.move_gb", "cluster.t4_move_gb",
    "model.gap", "model.bottleneck", "model.t4_bottleneck",
    "control.solve_s", "control.copy_ms.p50", "control.copy_ms.max",
    "control.commit_ms.p50", "control.commit_ms.max",
    "control.moves_committed", "control.retries", "control.aborted_moves",
    "control.wasted_gb", "control.audit_s", "control.migration_s",
    "bench.gen_lag_ms.p99", "bench.trace_overhead_frac", "bench.fail_frac"};

RunResult dispatch(const RunOptions& options, SpanStore& spans) {
  if (options.workload == "cold_scan") return runColdScan(options, spans);
  if (options.workload == "live_migration") return runLiveMigration(options, spans);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "", "cold_scan | live_migration")
      .define("seed", "1", "seed every input is generated from")
      .define("seconds", "10", "measurement budget of the run")
      .define("trace", "0", "1 = traced run reporting per-layer metrics")
      .define("out-dir", ".bench_out", "directory for the run record and spans")
      .define("commit", "unknown", "source revision, stamped into the record")
      .define("source-digest", "", "digest of the sources, stamped into the record");
  RunOptions options;
  try {
    flags.parse(argc, argv);
    if (flags.helpRequested()) {
      std::cout << flags.helpText("resexbench");
      return 0;
    }
    options.workload = flags.str("workload");
    options.seed = static_cast<std::uint64_t>(flags.integer("seed"));
    options.seconds = flags.real("seconds");
    options.trace = flags.integer("trace") != 0;
    options.scratchDir = flags.str("out-dir");
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resexbench: %s\n", e.what());
    return 2;
  }

  SpanStore spans;
  RunResult result;
  try {
    result = dispatch(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resexbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 2;
  }

  std::vector<std::string> notMeasured;
  if (options.trace) {
    result.metrics["bench.fail_frac"] =
        result.attempted > 0 ? static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted)
                             : 0.0;
    // Layers a workload does not exercise report zero (see run record).
    for (const char* name : kPerLayer)
      if (!result.metrics.count(name)) {
        result.metrics[name] = 0.0;
        notMeasured.emplace_back(name);
      }
  } else if (!result.metrics.count("peak_rss_mb")) {
    result.metrics["peak_rss_mb"] = peakRssMb();
  }

  const std::string outDir = flags.str("out-dir");
  const std::string stem = outDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  std::error_code ec;
  std::filesystem::create_directories(outDir, ec);

  JsonWriter record;
  record.beginObject();
  record.field("workload", options.workload);
  record.field("seed", options.seed);
  record.field("seconds", options.seconds);
  record.field("trace", options.trace);
  record.key("host").beginObject();
  record.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  record.field("unpack_backend", unpackBackendName(activeUnpackBackend()));
  record.field("build_type", RESEX_BENCH_BUILD_TYPE);
  record.field("compiler", RESEX_BENCH_COMPILER);
  record.field("commit", flags.str("commit"));
  record.field("source_digest", flags.str("source-digest"));
  record.endObject();
  record.field("correct", result.correct);
  record.field("attempted", result.attempted);
  record.field("failed", result.failed);
  record.key("problems").beginArray();
  for (const std::string& problem : result.problems) record.value(problem);
  record.endArray();
  record.key("not_measured").beginArray();
  for (const std::string& name : notMeasured) record.value(name);
  record.endArray();
  record.key("details").beginObject();
  for (const auto& [name, value] : result.details) record.field(name, value);
  record.endObject();
  record.key("metrics").beginObject();
  for (const auto& [name, value] : result.metrics) record.field(name, value);
  record.endObject();
  record.endObject();
  std::ofstream(stem + "-trace" + (options.trace ? "1" : "0") + ".json")
      << record.str() << "\n";
  if (options.trace) spans.writeChromeTrace(stem + ".spans.json", 50000);

  for (const std::string& problem : result.problems)
    std::fprintf(stderr, "resexbench: CORRECTNESS: %s\n", problem.c_str());
  std::printf("host: nproc %u, unpack %s, %s build, %s, commit %s\n",
              std::thread::hardware_concurrency(), unpackBackendName(activeUnpackBackend()),
              RESEX_BENCH_BUILD_TYPE, RESEX_BENCH_COMPILER, flags.str("commit").c_str());
  std::printf("%s seed %llu: %s, %llu attempted, %llu failed, %zu spans; record %s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              result.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), spans.size(),
              (stem + "-trace" + (options.trace ? "1" : "0") + ".json").c_str());

  JsonWriter line;
  line.beginObject();
  line.field("correct", result.correct);
  line.field("attempted", result.attempted);
  line.field("failed", result.failed);
  line.key("metrics").beginObject();
  const auto emit = [&](const char* name) {
    const auto it = result.metrics.find(name);
    // A missing metric prints as null, which run.py rejects.
    line.field(name, it != result.metrics.end() ? it->second : std::nan(""));
  };
  if (options.trace)
    for (const char* name : kPerLayer) emit(name);
  else
    for (const char* name : kEndToEnd) emit(name);
  line.endObject();
  line.endObject();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
