#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/types.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace resex {
namespace {

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = timer.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  EXPECT_NEAR(timer.millis(), timer.seconds() * 1e3, timer.seconds() * 50.0);
}

TEST(WallTimer, RestartResets) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  timer.restart();
  EXPECT_LT(timer.seconds(), 0.015);
}

TEST(WallTimer, UnitsAreConsistent) {
  WallTimer timer;
  const double s = timer.seconds();
  EXPECT_LE(s * 1e3, timer.millis() + 1.0);
  EXPECT_LE(s * 1e6, timer.micros() + 1000.0);
}

TEST(Deadline, ExpiresAfterBudget) {
  Deadline deadline(0.02);
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(deadline.expired());
  EXPECT_LE(deadline.remaining(), 0.0);
  EXPECT_DOUBLE_EQ(deadline.budget(), 0.02);
  EXPECT_GE(deadline.elapsed(), 0.02);
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  Deadline deadline(0.0);
  EXPECT_TRUE(deadline.expired());
}

TEST(Deadline, RemainingClampsAtZero) {
  Deadline deadline(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining(), 0.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline deadline = Deadline::unlimited();
  EXPECT_FALSE(deadline.expired());
  EXPECT_GT(deadline.remaining(), 1e18);
}

TEST(Log, LevelThresholdIsRespected) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Error);
  EXPECT_EQ(logLevel(), LogLevel::Error);
  // Below-threshold calls must be safe no-ops.
  RESEX_LOG_DEBUG("dropped %d", 1);
  RESEX_LOG_INFO("dropped %s", "too");
  RESEX_LOG_WARN("dropped");
  setLogLevel(LogLevel::Off);
  RESEX_LOG_ERROR("also dropped at Off");
  setLogLevel(saved);
}

TEST(Log, FormattingTruncatesLongMessagesSafely) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Error);
  const std::string huge(10000, 'x');
  // Must truncate to the internal buffer without UB (writes one long
  // line to stderr; that is the point of the test).
  logf(LogLevel::Error, "%s", huge.c_str());
  setLogLevel(saved);
}

TEST(Log, SinkCapturesPrefixedLines) {
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::Info);
  std::vector<std::pair<LogLevel, std::string>> captured;
  std::mutex mutex;
  setLogSink([&](LogLevel level, const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    captured.emplace_back(level, line);
  });
  RESEX_LOG_INFO("hello %d", 42);
  RESEX_LOG_WARN("careful");
  RESEX_LOG_DEBUG("below threshold, dropped");
  setLogSink(nullptr);
  setLogLevel(saved);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::Info);
  EXPECT_EQ(captured[1].first, LogLevel::Warn);
  const std::string& line = captured[0].second;
  EXPECT_NE(line.find("hello 42"), std::string::npos);
  EXPECT_NE(line.find("resex INFO"), std::string::npos);
  // ISO-8601 UTC timestamp: [YYYY-MM-DDTHH:MM:SS.mmmZ ...
  ASSERT_GE(line.size(), 25u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[5], '-');
  EXPECT_EQ(line[11], 'T');
  EXPECT_EQ(line[20], '.');
  EXPECT_EQ(line[24], 'Z');
  // Thread-id prefix "T<n>" follows the timestamp.
  std::string tid = "T";
  tid += std::to_string(logThreadId());
  EXPECT_NE(line.find(" " + tid + " "), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Log, ThreadIdsAreSmallAndStable) {
  const std::uint32_t mine = logThreadId();
  EXPECT_GE(mine, 1u);
  EXPECT_EQ(logThreadId(), mine);
  std::uint32_t other = 0;
  std::thread([&] { other = logThreadId(); }).join();
  EXPECT_NE(other, mine);
}

TEST(DimName, CanonicalLabels) {
  EXPECT_STREQ(dimName(0), "cpu");
  EXPECT_STREQ(dimName(1), "mem");
  EXPECT_STREQ(dimName(2), "disk");
  EXPECT_STREQ(dimName(3), "net");
  EXPECT_STREQ(dimName(7), "dim");
}

}  // namespace
}  // namespace resex
