// Helpers shared by every perfbench workload: the percentile rule, the
// capacity-ladder search, an in-memory span store, a timing decorator over
// MigrationDataPlane, and host facts. Everything here measures the program
// from outside — it times calls into public functions and never reaches
// into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "control/data_plane.hpp"

namespace resex::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- Percentile rule ---------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample:
/// the smallest value with at least p% of the samples at or below it.
/// 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double p);

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it in a sample of `count`; 0 when not even the median qualifies.
double reportablePercentile(std::size_t count);

/// One timing as the reporting rule wants it: the median, the highest
/// reportable percentile with its value, the p99 and max, and the count.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double tailPercentile = 0.0;  ///< 0 = no percentile has 10 samples beyond
  double tail = 0.0;            ///< value at tailPercentile (max when 0)
};
Summary summarize(std::vector<double> samples);

/// Summary of the quietest passes of a run: passes are ranked by their
/// median and pooled, lowest first, until the pool holds `minSamples`.
/// Interference from a shared host only ever adds latency and comes and
/// goes within a run, so this keeps the least disturbed passes, and no more
/// of them than the tail needs.
Summary quietPasses(const std::vector<std::vector<double>>& passes,
                    std::size_t minSamples);

/// The median over `windows` consecutive equal slices of `samples` (in
/// arrival order) of each slice's p99: a tail estimate that one transient
/// stall of the host moves by at most one slice.
double windowedP99(const std::vector<double>& samples, std::size_t windows);

// -- Capacity ladder ---------------------------------------------------------

enum class StepVerdict {
  kPass,     ///< p99 within the limit, no backlog, no failures
  kFail,     ///< the system missed the limit at this rate
  kInvalid,  ///< the generator fell behind its own schedule: no verdict
};

/// What one open-loop probe at a fixed rate observed.
struct ProbeOutcome {
  double p99Seconds = 0.0;        ///< from scheduled arrival
  double genLagP99Seconds = 0.0;  ///< how late the generator issued requests
  std::size_t failures = 0;       ///< failed, refused or partial requests
  bool backlogGrowing = false;    ///< responses still draining past the limit
};

/// Failures and backlog fail a step; a generator that fell behind more than
/// `genLagLimitSeconds` makes it invalid (not passed); otherwise the p99
/// decides.
StepVerdict judgeStep(const ProbeOutcome& outcome, double p99LimitSeconds,
                      double genLagLimitSeconds);

/// Rates lo, lo*ratio, lo*ratio^2, ... up to and including hi.
std::vector<double> geometricLadder(double lo, double hi, double ratio);

struct LadderStep {
  double rate = 0.0;
  StepVerdict verdict = StepVerdict::kFail;
};
struct LadderResult {
  /// Highest ladder rate that passed; 0 when none did.
  double capacity = 0.0;
  std::vector<LadderStep> steps;  ///< in probe order
  std::size_t invalidSteps = 0;
};

/// Binary search for the highest passing rate on a ladder, assuming a rate
/// passes only if every lower rate would. A step that does not pass is
/// probed a second time and passes if that probe does; invalid steps count
/// as not passed.
LadderResult searchLadder(const std::vector<double>& ladder,
                          const std::function<StepVerdict(double)>& probe);

// -- Spans -------------------------------------------------------------------

/// In-memory span store for traced runs: name, request id, parent span,
/// start and end. Thread-safe; written out once when the run ends.
class SpanStore {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint64_t id = 0;      ///< this span
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< shared by every span of one request
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  SpanStore();

  std::uint32_t intern(const std::string& name);
  /// Records a finished span and returns its id.
  std::uint64_t record(std::uint32_t name, std::uint64_t request,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end);
  std::size_t size() const;
  /// Chrome trace-event JSON of the first `maxSpans` spans.
  bool writeChromeTrace(const std::string& path, std::size_t maxSpans) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  Clock::time_point epoch_;
};

// -- MigrationDataPlane timing decorator --------------------------------------

/// Delegates every call to `inner` unchanged and times copyShard and
/// commitMove, recording a span per timed call when `spans` is set. Wasted
/// bytes are charged from each shard's move bytes: the transferred fraction
/// of a failed copy, or all of a discarded one.
class TimedDataPlane final : public MigrationDataPlane {
 public:
  TimedDataPlane(MigrationDataPlane& inner, std::vector<double> shardBytes,
                 SpanStore* spans = nullptr);

  bool admitCopy(ShardId shard, MachineId from, MachineId to) override;
  bool copyShard(ShardId shard, MachineId from, MachineId to,
                 const CopyFault& fault) override;
  void discardCopy(ShardId shard, MachineId to, bool destinationCrashed) override;
  void commitMove(ShardId shard, MachineId from, MachineId to) override;
  void machineCrashed(MachineId machine) override;
  void recoverMachine(MachineId machine) override;

  std::vector<double> copySeconds() const;
  std::vector<double> commitSeconds() const;
  double wastedBytes() const;

 private:
  MigrationDataPlane& inner_;
  std::vector<double> shardBytes_;
  SpanStore* spans_ = nullptr;
  std::uint32_t copyName_ = 0, commitName_ = 0;
  mutable std::mutex mutex_;
  std::vector<double> copySeconds_;
  std::vector<double> commitSeconds_;
  double wastedBytes_ = 0.0;
};

// -- Host facts --------------------------------------------------------------

/// Peak resident set size of this process, in megabytes.
double peakRssMb();

}  // namespace resex::perfbench
