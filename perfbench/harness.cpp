#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/json_writer.hpp"

namespace resex::perfbench {

namespace {
/// 1-based nearest rank of percentile p in n samples. The epsilon keeps
/// products like 0.999 * 10000 = 9990.000000000002 from rounding up a rank.
std::size_t nearestRank(double p, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}
}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[std::clamp<std::size_t>(nearestRank(p, sorted.size()), 1, sorted.size()) - 1];
}

double reportablePercentile(std::size_t count) {
  for (const double p : {99.9, 99.0, 90.0, 50.0})
    if (count >= nearestRank(p, count) + 10) return p;
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 50.0);
  s.p99 = percentile(samples, 99.0);
  s.max = samples.back();
  s.tailPercentile = reportablePercentile(samples.size());
  s.tail = s.tailPercentile > 0.0 ? percentile(samples, s.tailPercentile) : s.max;
  return s;
}

Summary quietPasses(const std::vector<std::vector<double>>& passes,
                    std::size_t minSamples) {
  std::vector<std::pair<double, std::size_t>> byMedian;
  for (std::size_t i = 0; i < passes.size(); ++i)
    byMedian.emplace_back(summarize(passes[i]).p50, i);
  std::sort(byMedian.begin(), byMedian.end());
  std::vector<double> pooled;
  for (std::size_t k = 0; k < byMedian.size() && pooled.size() < minSamples; ++k) {
    const std::vector<double>& pass = passes[byMedian[k].second];
    pooled.insert(pooled.end(), pass.begin(), pass.end());
  }
  return summarize(std::move(pooled));
}

double windowedP99(const std::vector<double>& samples, std::size_t windows) {
  windows = std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(1, samples.size()));
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * samples.size() / windows);
    const auto end =
        samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * samples.size() / windows);
    p99s.push_back(summarize(std::vector<double>(begin, end)).p99);
  }
  return summarize(std::move(p99s)).p50;
}

StepVerdict judgeStep(const ProbeOutcome& outcome, double p99LimitSeconds,
                      double genLagLimitSeconds) {
  if (outcome.failures > 0 || outcome.backlogGrowing) return StepVerdict::kFail;
  if (outcome.genLagP99Seconds > genLagLimitSeconds) return StepVerdict::kInvalid;
  return outcome.p99Seconds <= p99LimitSeconds ? StepVerdict::kPass
                                               : StepVerdict::kFail;
}

std::vector<double> geometricLadder(double lo, double hi, double ratio) {
  std::vector<double> ladder;
  for (double rate = lo; rate <= hi * (1.0 + 1e-9); rate *= ratio)
    ladder.push_back(rate);
  return ladder;
}

LadderResult searchLadder(const std::vector<double>& ladder,
                          const std::function<StepVerdict(double)>& probe) {
  LadderResult result;
  // Invariant: every index <= lo passed (lo = -1: none known), every
  // index >= hi did not.
  std::ptrdiff_t lo = -1;
  auto hi = static_cast<std::ptrdiff_t>(ladder.size());
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = lo + (hi - lo) / 2;
    const double rate = ladder[static_cast<std::size_t>(mid)];
    StepVerdict verdict = probe(rate);
    // A transient stall of the host can fail one probe far below capacity
    // and send the search down for good: a step that did not pass gets one
    // more probe.
    if (verdict != StepVerdict::kPass) verdict = probe(rate);
    result.steps.push_back({rate, verdict});
    if (verdict == StepVerdict::kInvalid) ++result.invalidSteps;
    if (verdict == StepVerdict::kPass)
      lo = mid;
    else
      hi = mid;
  }
  result.capacity = lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : 0.0;
  return result;
}

SpanStore::SpanStore() : epoch_(Clock::now()) {}

std::uint32_t SpanStore::intern(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint64_t SpanStore::record(std::uint32_t name, std::uint64_t request,
                                std::uint64_t parent, Clock::time_point start,
                                Clock::time_point end) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  std::lock_guard lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, request, ns(start), ns(end)});
  return id;
}

std::size_t SpanStore::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool SpanStore::writeChromeTrace(const std::string& path,
                                 std::size_t maxSpans) const {
  std::lock_guard lock(mutex_);
  JsonWriter json;
  json.beginObject().key("traceEvents").beginArray();
  for (std::size_t i = 0; i < spans_.size() && i < maxSpans; ++i) {
    const Span& span = spans_[i];
    json.beginObject()
        .field("name", names_[span.name])
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", span.request)
        .field("ts", static_cast<double>(span.startNs) * 1e-3)
        .field("dur", static_cast<double>(span.endNs - span.startNs) * 1e-3);
    json.key("args")
        .beginObject()
        .field("id", span.id)
        .field("parent", span.parent)
        .endObject();
    json.endObject();
  }
  json.endArray();
  json.field("spansRecorded", static_cast<std::uint64_t>(spans_.size()));
  json.endObject();
  std::ofstream out(path);
  out << json.str() << "\n";
  return static_cast<bool>(out);
}

TimedDataPlane::TimedDataPlane(MigrationDataPlane& inner,
                               std::vector<double> shardBytes, SpanStore* spans)
    : inner_(inner), shardBytes_(std::move(shardBytes)), spans_(spans) {
  if (spans_) {
    copyName_ = spans_->intern("control.MigrationDataPlane.copyShard");
    commitName_ = spans_->intern("control.MigrationDataPlane.commitMove");
  }
}

bool TimedDataPlane::admitCopy(ShardId shard, MachineId from, MachineId to) {
  return inner_.admitCopy(shard, from, to);
}

bool TimedDataPlane::copyShard(ShardId shard, MachineId from, MachineId to,
                               const CopyFault& fault) {
  const auto start = Clock::now();
  const bool ok = inner_.copyShard(shard, from, to, fault);
  const auto end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  if (spans_) spans_->record(copyName_, shard + 1, 0, start, end);
  std::lock_guard lock(mutex_);
  copySeconds_.push_back(seconds);
  if (!ok) wastedBytes_ += fault.fraction * shardBytes_.at(shard);
  return ok;
}

void TimedDataPlane::discardCopy(ShardId shard, MachineId to,
                                 bool destinationCrashed) {
  inner_.discardCopy(shard, to, destinationCrashed);
  std::lock_guard lock(mutex_);
  wastedBytes_ += shardBytes_.at(shard);
}

void TimedDataPlane::commitMove(ShardId shard, MachineId from, MachineId to) {
  const auto start = Clock::now();
  inner_.commitMove(shard, from, to);
  const auto end = Clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  if (spans_) spans_->record(commitName_, shard + 1, 0, start, end);
  std::lock_guard lock(mutex_);
  commitSeconds_.push_back(seconds);
}

void TimedDataPlane::machineCrashed(MachineId machine) {
  inner_.machineCrashed(machine);
}

void TimedDataPlane::recoverMachine(MachineId machine) {
  inner_.recoverMachine(machine);
}

std::vector<double> TimedDataPlane::copySeconds() const {
  std::lock_guard lock(mutex_);
  return copySeconds_;
}

std::vector<double> TimedDataPlane::commitSeconds() const {
  std::lock_guard lock(mutex_);
  return commitSeconds_;
}

double TimedDataPlane::wastedBytes() const {
  std::lock_guard lock(mutex_);
  return wastedBytes_;
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace resex::perfbench
