// The perfbench workloads and what each run hands back to main().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "index/scoring.hpp"
#include "net/frame.hpp"

namespace resex {
class PartitionedIndex;
}
namespace resex::serve {
class QueryBroker;
struct ObservedLoad;
}

namespace resex::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget; set-up is timed separately and not included.
  double seconds = 10.0;
  /// false: end-to-end metrics from untraced passes. true: a separate
  /// traced pass that yields the per-layer metrics.
  bool trace = false;
  /// Where a workload may create (and must remove) files of its own.
  std::string scratchDir = ".bench_out";
};

struct RunResult {
  /// Every output matched its oracle and every structural check held.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value, in the units BENCHMARK.json declares.
  std::map<std::string, double> metrics;
  /// Sample counts and other facts for the run record (not metrics).
  std::map<std::string, double> details;
  /// Human-readable correctness violations.
  std::vector<std::string> problems;

  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  /// Records one capacity-ladder probe for the run record.
  void noteProbe(std::size_t search, double rate, const ProbeOutcome& outcome,
                 StepVerdict verdict) {
    const std::string key = "ladder." + std::to_string(search) + "." +
                            std::to_string(static_cast<long long>(rate));
    details[key + ".p99_ms"] = outcome.p99Seconds * 1e3;
    details[key + ".gen_lag_p99_ms"] = outcome.genLagP99Seconds * 1e3;
    details[key + ".failures"] = static_cast<double>(outcome.failures);
    details[key + ".verdict"] = static_cast<double>(verdict);
  }
  /// Records a timing summary as the reporting rule wants it: median, the
  /// highest percentile with ten samples beyond it, and the sample count.
  void noteSamples(const std::string& name, const Summary& s) {
    details[name + ".samples"] = static_cast<double>(s.count);
    details[name + ".p50"] = s.p50;
    details[name + ".tail_percentile"] = s.tailPercentile;
    details[name + ".tail"] = s.tail;
  }
};

RunResult runColdScan(const RunOptions& options, SpanStore& spans);
RunResult runLiveMigration(const RunOptions& options, SpanStore& spans);
/// The solver layers (lns, core, cluster, model) at T4 scale, into a traced
/// run's per-layer metrics; see solver.cpp.
void measureSolverLayers(std::uint64_t seed, RunResult& result, SpanStore& spans);

// -- Shared by the serving workloads ------------------------------------------

/// Canonical response bytes (net_bench's oracle idiom): a RESULT frame with
/// requestId 0 and the cache-hit flag masked, so two responses are the same
/// answer iff these bytes match — doc ids, score bit patterns, flags.
std::string canonicalBytes(net::QueryResponse response);

/// Zipf(0.9) draws over [0, poolSize): which pool query each arrival asks.
std::vector<std::uint32_t> zipfPicks(std::size_t count, std::size_t poolSize,
                                     std::uint64_t seed);

/// `count` queries of `termsPerQuery` Zipf(0.9) terms each, skipping the
/// `stopwords` most frequent terms.
std::vector<std::vector<TermId>> zipfQueries(std::size_t count,
                                             std::uint32_t termCount,
                                             std::uint64_t stopwords,
                                             std::size_t termsPerQuery,
                                             std::uint64_t seed);

/// Partition size weights with a fixed lognormal skew (sigma), the same for
/// every seed so the bottleneck machine's share is a property of the
/// workload, not of the draw.
std::vector<double> skewedWeights(std::size_t partitions, double sigma);

/// One open-loop pass replayed straight into QueryBroker::submit from the
/// calling thread, timed per arrival.
struct InprocResult {
  std::vector<Clock::time_point> due, entered, done;
  std::vector<double> latency;     ///< completion minus scheduled arrival (s)
  std::vector<double> genLag;      ///< submit entry minus scheduled arrival (s)
  std::vector<double> submitUs;    ///< duration of the submit() call
  std::vector<double> completeUs;  ///< submit() entry to completion callback
  std::vector<std::uint8_t> executed;  ///< not answered from the cache
  std::size_t failures = 0;        ///< partial answers and oracle mismatches
  std::size_t mismatches = 0;      ///< complete answers that differ from the oracle
  /// Last completion minus last scheduled arrival (s).
  double drainSeconds = 0.0;
};

/// Replays arrival i (pool query picks[i]) at offsets[i] seconds from now
/// with SearchService's non-blocking submit options, waits for every
/// completion, and byte-checks each complete answer against `expected`.
InprocResult replayInproc(serve::QueryBroker& broker,
                          const std::vector<std::vector<TermId>>& pool,
                          const std::vector<std::string>& expected,
                          const std::vector<double>& offsets,
                          const std::vector<std::uint32_t>& picks);

/// Per pool query, the per-partition execution time (us) and summed exec
/// stats of a direct topKDisjunctiveInto replay with global statistics —
/// the index layer timed from outside. Only queries with wanted[q] set run.
struct IndexReplay {
  std::vector<std::vector<double>> execUs;  ///< [pool][partition]
  std::vector<ExecStats> stats;             ///< [pool]
};
IndexReplay replayIndex(const PartitionedIndex& index,
                        const std::vector<std::vector<TermId>>& pool,
                        std::uint32_t topK, const Bm25Params& bm25,
                        const std::vector<std::uint8_t>& wanted, SpanStore& spans);

/// index.* metrics for a pass whose arrival i asked pool query picks[i] and
/// was executed (not a cache hit) when executed[i] is set. Per-query counts
/// average over every arrival, so a cache-served workload reads near zero.
void setIndexMetrics(RunResult& result, const IndexReplay& replay,
                     const std::vector<std::uint32_t>& picks,
                     const std::vector<std::uint8_t>& executed);

/// serve.submit_us / complete_us / wait_us from an in-process pass; wait is
/// submit-to-completion minus the slowest partition's replayed exec time.
void setSubmitMetrics(RunResult& result, const IndexReplay& replay,
                      const std::vector<std::uint32_t>& picks,
                      const InprocResult& pass);

/// ObservedLoad windows summed over a pass.
struct LoadTotals {
  double windowSeconds = 0.0;
  std::vector<double> busySeconds;  ///< per machine
  std::vector<std::size_t> workers;
  std::uint64_t queries = 0, cacheHits = 0, shedTasks = 0, expiredQueries = 0;
  void add(const serve::ObservedLoad& load, const serve::QueryBroker& broker);
};
/// serve.busy_frac.*, cache_hit_ratio, shed_tasks, expired_queries.
void setLoadMetrics(RunResult& result, const LoadTotals& totals);

/// Records the spans of an in-process pass: a root per request (scheduled
/// arrival to completion) with the submit-to-completion child.
void recordInprocSpans(SpanStore& spans, const InprocResult& pass);

/// Independent capacity-ladder searches per end-to-end run, and the slices
/// each probe's tails are judged over (see windowedP99).
constexpr std::size_t kLadderSearches = 3;
constexpr std::size_t kProbeWindows = 5;

/// The highest rate whose probe keeps p99 within the limit (judgeStep, with
/// a quarter of the limit as the generator-lag allowance), best of
/// kLadderSearches searches of `ladder`: stalls of a shared host only ever
/// fail probes, never pass them. Every probe goes to the record.
double ladderCapacity(RunResult& result, const std::vector<double>& ladder,
                      double p99LimitSeconds,
                      const std::function<ProbeOutcome(double)>& probe);

/// Fills the end-to-end metric set every workload reports from a finished
/// run's pieces. Keeps main() and the workloads agreeing on names.
void setEndToEnd(RunResult& result, double setupSeconds, double p50Seconds,
                 double p99Seconds, double capacity, double bottleneck);

}  // namespace resex::perfbench
