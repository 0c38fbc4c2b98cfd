// Tests of the benchmark harness's own helpers: the percentile rule, the
// capacity-ladder search on a synthetic latency curve, and the
// MigrationDataPlane timing decorator's delegation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"

namespace resex::perfbench {
namespace {

std::vector<double> oneTo(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = oneTo(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, ReportableNeedsTenSamplesBeyond) {
  EXPECT_EQ(reportablePercentile(10000), 99.9);  // 10 beyond rank 9990
  EXPECT_EQ(reportablePercentile(9999), 99.0);
  EXPECT_EQ(reportablePercentile(1000), 99.0);  // 10 beyond rank 990
  EXPECT_EQ(reportablePercentile(999), 90.0);
  EXPECT_EQ(reportablePercentile(100), 90.0);
  EXPECT_EQ(reportablePercentile(99), 50.0);
  EXPECT_EQ(reportablePercentile(20), 50.0);
  EXPECT_EQ(reportablePercentile(19), 0.0);
  EXPECT_EQ(reportablePercentile(0), 0.0);
}

TEST(Percentile, SummarizeSortsAndReportsTail) {
  std::vector<double> v = oneTo(1000);
  std::reverse(v.begin(), v.end());
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_EQ(s.tailPercentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);

  const Summary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.tailPercentile, 0.0);
  EXPECT_EQ(few.tail, 3.0);  // no percentile qualifies: the max
}

TEST(Percentile, WindowedP99IgnoresOneStalledSlice) {
  // Five slices of 1..100; a stall makes every sample of slice 2 huge.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w)
    for (double x : oneTo(100)) v.push_back(w == 2 ? 1e6 : x);
  EXPECT_EQ(windowedP99(v, 5), 99.0);
  EXPECT_EQ(windowedP99(v, 1), 1e6);  // one window: the plain p99
  EXPECT_EQ(windowedP99({}, 5), 0.0);
}

TEST(Percentile, QuietPassesPoolTheLeastDisturbed) {
  // Four passes of 1..100; two are shifted up by a stall.
  std::vector<std::vector<double>> passes(4, oneTo(100));
  for (double& x : passes[1]) x += 1000.0;
  for (double& x : passes[3]) x += 500.0;
  const Summary two = quietPasses(passes, 150);
  EXPECT_EQ(two.count, 200u);  // the two quiet passes, pooled
  EXPECT_EQ(two.p50, 50.0);
  EXPECT_EQ(two.p99, 99.0);
  EXPECT_EQ(quietPasses(passes, 201).p99, 597.0);  // the 500-stall pass joins
  EXPECT_EQ(quietPasses(passes, 1).count, 100u);   // one pass suffices
  EXPECT_EQ(quietPasses(passes, 10000).count, 400u);  // all there is
}

TEST(Ladder, GeometricIncludesBothEnds) {
  const std::vector<double> ladder = geometricLadder(100.0, 1600.0, 2.0);
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_DOUBLE_EQ(ladder.front(), 100.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 1600.0);
}

TEST(Ladder, JudgeOrdersFailureBacklogLagAndTail) {
  ProbeOutcome ok{0.001, 0.0001, 0, false};
  EXPECT_EQ(judgeStep(ok, 0.002, 0.0005), StepVerdict::kPass);
  ProbeOutcome slow = ok;
  slow.p99Seconds = 0.003;
  EXPECT_EQ(judgeStep(slow, 0.002, 0.0005), StepVerdict::kFail);
  ProbeOutcome lagging = ok;
  lagging.genLagP99Seconds = 0.001;
  EXPECT_EQ(judgeStep(lagging, 0.002, 0.0005), StepVerdict::kInvalid);
  ProbeOutcome failed = lagging;
  failed.failures = 1;
  EXPECT_EQ(judgeStep(failed, 0.002, 0.0005), StepVerdict::kFail);
  ProbeOutcome backlog = ok;
  backlog.backlogGrowing = true;
  EXPECT_EQ(judgeStep(backlog, 0.002, 0.0005), StepVerdict::kFail);
}

// An M/M/1-shaped p99 curve: p99(rate) = -ln(0.01) / (mu - rate), infinite
// at and past capacity mu. The search must land on the highest ladder rate
// whose p99 stays within the limit.
TEST(Ladder, FindsHighestPassingRateOnSyntheticCurve) {
  const double mu = 10000.0;
  const double limit = 0.005;
  const auto p99 = [&](double rate) {
    return rate >= mu ? INFINITY : -std::log(0.01) / (mu - rate);
  };
  const std::vector<double> ladder = geometricLadder(500.0, 50000.0, 1.05);
  const LadderResult result = searchLadder(ladder, [&](double rate) {
    return judgeStep({p99(rate), 0.0, 0, false}, limit, limit / 4);
  });
  double expected = 0.0;
  for (const double rate : ladder)
    if (p99(rate) <= limit) expected = rate;
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(result.capacity, expected);
  EXPECT_LE(result.steps.size(), 7u);  // binary search over ~95 rates
  EXPECT_EQ(result.invalidSteps, 0u);
}

TEST(Ladder, InvalidStepsAreNotPassed) {
  // The generator falls behind from 4000/s on: the capacity is capped
  // below that and the invalid probes are counted.
  const std::vector<double> ladder = geometricLadder(1000.0, 16000.0, 2.0);
  const LadderResult result = searchLadder(ladder, [](double rate) {
    return judgeStep({0.001, rate >= 4000.0 ? 1.0 : 0.0, 0, false}, 0.002, 0.0005);
  });
  EXPECT_DOUBLE_EQ(result.capacity, 2000.0);
  EXPECT_GT(result.invalidSteps, 0u);
}

TEST(Ladder, RetriesAStepThatDidNotPass) {
  // The first probe at 4000/s hits a stall; its retry passes, so the
  // search still climbs to the real capacity of 8000/s.
  int probesAt4000 = 0;
  const LadderResult result =
      searchLadder(geometricLadder(1000.0, 16000.0, 2.0), [&](double rate) {
        if (rate == 4000.0 && probesAt4000++ == 0) return StepVerdict::kFail;
        return rate <= 8000.0 ? StepVerdict::kPass : StepVerdict::kFail;
      });
  EXPECT_EQ(probesAt4000, 2);
  EXPECT_DOUBLE_EQ(result.capacity, 8000.0);
}

TEST(Ladder, NothingPassesMeansZero) {
  const LadderResult result = searchLadder(
      geometricLadder(1.0, 8.0, 2.0), [](double) { return StepVerdict::kFail; });
  EXPECT_EQ(result.capacity, 0.0);
}

/// Records every call with its arguments and answers with scripted values.
class RecordingPlane final : public MigrationDataPlane {
 public:
  using Call = std::tuple<std::string, ShardId, MachineId, MachineId, bool, double>;
  std::vector<Call> calls;
  bool admitAnswer = true;
  bool copyAnswer = true;

  bool admitCopy(ShardId shard, MachineId from, MachineId to) override {
    calls.emplace_back("admit", shard, from, to, false, 0.0);
    return admitAnswer;
  }
  bool copyShard(ShardId shard, MachineId from, MachineId to,
                 const CopyFault& fault) override {
    calls.emplace_back("copy", shard, from, to, fault.failAttempt, fault.fraction);
    return copyAnswer;
  }
  void discardCopy(ShardId shard, MachineId to, bool crashed) override {
    calls.emplace_back("discard", shard, 0, to, crashed, 0.0);
  }
  void commitMove(ShardId shard, MachineId from, MachineId to) override {
    calls.emplace_back("commit", shard, from, to, false, 0.0);
  }
  void machineCrashed(MachineId machine) override {
    calls.emplace_back("crashed", 0, machine, 0, false, 0.0);
  }
  void recoverMachine(MachineId machine) override {
    calls.emplace_back("recover", 0, machine, 0, false, 0.0);
  }
};

TEST(TimedDataPlane, DelegatesEveryCallUnchanged) {
  RecordingPlane inner;
  SpanStore spans;
  TimedDataPlane timed(inner, {1000.0, 2000.0, 4000.0}, &spans);

  inner.admitAnswer = false;
  EXPECT_FALSE(timed.admitCopy(2, 1, 3));
  inner.admitAnswer = true;
  EXPECT_TRUE(timed.admitCopy(1, 0, 2));
  CopyFault fault;
  fault.failAttempt = true;
  fault.fraction = 0.25;
  inner.copyAnswer = false;
  EXPECT_FALSE(timed.copyShard(1, 0, 2, fault));
  inner.copyAnswer = true;
  EXPECT_TRUE(timed.copyShard(1, 0, 2, CopyFault{}));
  timed.discardCopy(2, 3, true);
  timed.commitMove(1, 0, 2);
  timed.machineCrashed(3);
  timed.recoverMachine(3);

  const std::vector<RecordingPlane::Call> expected = {
      {"admit", 2, 1, 3, false, 0.0},  {"admit", 1, 0, 2, false, 0.0},
      {"copy", 1, 0, 2, true, 0.25},   {"copy", 1, 0, 2, false, 0.5},
      {"discard", 2, 0, 3, true, 0.0}, {"commit", 1, 0, 2, false, 0.0},
      {"crashed", 0, 3, 0, false, 0.0}, {"recover", 0, 3, 0, false, 0.0}};
  EXPECT_EQ(inner.calls, expected);

  EXPECT_EQ(timed.copySeconds().size(), 2u);
  EXPECT_EQ(timed.commitSeconds().size(), 1u);
  // A quarter of shard 1's 2000 bytes failed in flight; shard 2's 4000
  // were discarded whole.
  EXPECT_DOUBLE_EQ(timed.wastedBytes(), 0.25 * 2000.0 + 4000.0);
  EXPECT_EQ(spans.size(), 3u);  // two copies, one commit
}

}  // namespace
}  // namespace resex::perfbench
