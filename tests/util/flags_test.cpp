#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace resex {
namespace {

std::vector<const char*> argvOf(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(Flags, DefaultsApplyWithoutParse) {
  Flags f;
  f.define("count", "7", "a count");
  EXPECT_EQ(f.integer("count"), 7);
}

TEST(Flags, EqualsSyntax) {
  Flags f;
  f.define("rate", "1.0", "rate");
  auto argv = argvOf({"prog", "--rate=2.5"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_DOUBLE_EQ(f.real("rate"), 2.5);
}

TEST(Flags, SpaceSyntax) {
  Flags f;
  f.define("name", "x", "name");
  auto argv = argvOf({"prog", "--name", "hello"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.str("name"), "hello");
}

TEST(Flags, BareFlagIsBooleanTrue) {
  Flags f;
  f.define("verbose", "false", "verbosity");
  auto argv = argvOf({"prog", "--verbose"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.boolean("verbose"));
}

TEST(Flags, BareFlagFollowedByAnotherFlag) {
  Flags f;
  f.define("verbose", "false", "verbosity");
  f.define("n", "1", "count");
  auto argv = argvOf({"prog", "--verbose", "--n", "3"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.boolean("verbose"));
  EXPECT_EQ(f.integer("n"), 3);
}

TEST(Flags, UnknownFlagThrows) {
  Flags f;
  f.define("x", "1", "x");
  auto argv = argvOf({"prog", "--bogus=1"});
  EXPECT_THROW(f.parse(static_cast<int>(argv.size()), argv.data()), std::runtime_error);
}

TEST(Flags, UndeclaredLookupThrows) {
  Flags f;
  EXPECT_THROW(f.str("missing"), std::runtime_error);
}

TEST(Flags, DuplicateDefineThrows) {
  Flags f;
  f.define("x", "1", "x");
  EXPECT_THROW(f.define("x", "2", "dup"), std::runtime_error);
}

TEST(Flags, PositionalArgumentsCollected) {
  Flags f;
  f.define("x", "1", "x");
  auto argv = argvOf({"prog", "input.txt", "--x=5", "more"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, HelpRequested) {
  Flags f;
  auto argv = argvOf({"prog", "--help"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(f.helpRequested());
}

TEST(Flags, HelpTextMentionsFlagsAndDefaults) {
  Flags f;
  f.define("machines", "100", "number of machines");
  const std::string text = f.helpText("prog");
  EXPECT_NE(text.find("--machines"), std::string::npos);
  EXPECT_NE(text.find("100"), std::string::npos);
  EXPECT_NE(text.find("number of machines"), std::string::npos);
}

TEST(Flags, MalformedIntegerReportsFlagAndValue) {
  Flags f;
  f.define("time-budget", "10", "budget");
  auto argv = argvOf({"prog", "--time-budget=abc"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  try {
    (void)f.integer("time-budget");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--time-budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected integer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  }
}

TEST(Flags, MalformedRealReportsFlagAndValue) {
  Flags f;
  f.define("rate", "1.0", "rate");
  auto argv = argvOf({"prog", "--rate", "fast"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  try {
    (void)f.real("rate");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--rate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected number"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'fast'"), std::string::npos) << msg;
  }
}

TEST(Flags, TrailingGarbageRejected) {
  Flags f;
  f.define("n", "1", "count");
  f.define("x", "1.0", "x");
  auto argv = argvOf({"prog", "--n=12abc", "--x=3.5zzz"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW((void)f.integer("n"), std::runtime_error);
  EXPECT_THROW((void)f.real("x"), std::runtime_error);
}

TEST(Flags, OutOfRangeIntegerRejectedWithMessage) {
  Flags f;
  f.define("big", "1", "big");
  auto argv = argvOf({"prog", "--big=999999999999999999999999"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW((void)f.integer("big"), std::runtime_error);
}

TEST(Flags, CountRejectsNegativeAndOutOfRangeValues) {
  Flags f;
  f.define("workers", "4", "workers");
  f.define("port", "1", "port");
  f.define("seed", "0", "seed");
  auto argv = argvOf({"prog", "--workers=-1", "--port=70000",
                      "--seed=9223372036854775807"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  // A negative count must not wrap to SIZE_MAX.
  try {
    (void)f.count("workers");
    FAIL() << "negative count accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--workers"), std::string::npos) << what;
    EXPECT_NE(what.find("'-1'"), std::string::npos) << what;
  }
  // Past the target type's range: rejected, not truncated.
  try {
    (void)f.count<std::uint16_t>("port");
    FAIL() << "out-of-range count accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--port"), std::string::npos) << what;
    EXPECT_NE(what.find("'70000'"), std::string::npos) << what;
    EXPECT_NE(what.find("65535"), std::string::npos) << what;
  }
  EXPECT_THROW((void)f.count<std::uint32_t>("seed"), std::runtime_error);
  // In range: the value, at the edges too.
  EXPECT_EQ(f.count<std::uint64_t>("seed"), 9223372036854775807ull);
  f.define("zero", "0", "zero");
  f.define("max16", "65535", "max16");
  EXPECT_EQ(f.count("zero"), 0u);
  EXPECT_EQ(f.count<std::uint16_t>("max16"), 65535u);
}

TEST(Flags, WellFormedValuesStillParse) {
  Flags f;
  f.define("n", "1", "count");
  f.define("x", "1.0", "x");
  auto argv = argvOf({"prog", "--n=-42", "--x=2.5e-3"});
  f.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(f.integer("n"), -42);
  EXPECT_DOUBLE_EQ(f.real("x"), 2.5e-3);
}

TEST(Flags, BooleanVariants) {
  Flags f;
  f.define("a", "true", "");
  f.define("b", "yes", "");
  f.define("c", "on", "");
  f.define("d", "1", "");
  f.define("e", "false", "");
  EXPECT_TRUE(f.boolean("a"));
  EXPECT_TRUE(f.boolean("b"));
  EXPECT_TRUE(f.boolean("c"));
  EXPECT_TRUE(f.boolean("d"));
  EXPECT_FALSE(f.boolean("e"));
}

}  // namespace
}  // namespace resex
