#include "core/cli.h"

#include <gtest/gtest.h>

#include "core/string_util.h"

namespace orinsim {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, EqualsSyntax) {
  const CliArgs args = make({"--model=llama3", "--batch=32"});
  EXPECT_EQ(args.get("model", ""), "llama3");
  EXPECT_EQ(args.get_int("batch", 0), 32);
}

TEST(CliTest, SpaceSyntax) {
  const CliArgs args = make({"--dataset", "longbench"});
  EXPECT_EQ(args.get("dataset", ""), "longbench");
}

TEST(CliTest, BooleanFlags) {
  const CliArgs args = make({"--verbose", "--no-color"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("color", true));
}

TEST(CliTest, DefaultsWhenMissing) {
  const CliArgs args = make({});
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_TRUE(args.get_bool("flag", true));
}

TEST(CliTest, PositionalArguments) {
  const CliArgs args = make({"first", "--k=v", "second"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(CliTest, DoubleParsing) {
  const CliArgs args = make({"--scale=0.96"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.96);
}

TEST(CliTest, HasDetectsPresence) {
  const CliArgs args = make({"--present"});
  EXPECT_TRUE(args.has("present"));
  EXPECT_FALSE(args.has("absent"));
}

// Malformed numeric values must fail with a usage message naming the bad
// flag, not parse silently to 0 (the old strtoll behaviour) or escape main
// as an uncaught exception. Death tests use the threadsafe style so they
// stay reliable under the sanitizer CI jobs.
class CliUsageDeathTest : public ::testing::Test {
 protected:
  CliUsageDeathTest() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

TEST_F(CliUsageDeathTest, RejectsNonNumericInt) {
  const CliArgs args = make({"--batch=abc"});
  EXPECT_EXIT(args.get_int("batch", 0), ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --batch: 'abc'");
}

TEST_F(CliUsageDeathTest, RejectsTrailingGarbage) {
  const CliArgs args = make({"--power-cap-w=35W"});
  EXPECT_EXIT(args.get_double("power-cap-w", 0.0),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --power-cap-w: '35W'");
}

TEST_F(CliUsageDeathTest, RejectsIntegerOverflow) {
  const CliArgs args = make({"--requests=99999999999999999999999999"});
  EXPECT_EXIT(args.get_int("requests", 0),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --requests");
}

TEST_F(CliUsageDeathTest, RejectsDoubleOverflowAndNonFinite) {
  const CliArgs huge = make({"--rps=1e999"});
  EXPECT_EXIT(huge.get_double("rps", 0.0),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --rps");
  const CliArgs inf = make({"--rps=inf"});
  EXPECT_EXIT(inf.get_double("rps", 0.0),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --rps");
}

TEST_F(CliUsageDeathTest, RejectsMalformedBool) {
  const CliArgs args = make({"--prefix-cache=tru"});
  EXPECT_EXIT(args.get_bool("prefix-cache", false),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "invalid value for --prefix-cache: 'tru'");
}

// require_known: every spelling of a known flag passes; an unknown flag,
// or --no- on a value flag, exits naming it.
TEST_F(CliUsageDeathTest, RequireKnownNamesTheUnknownFlag) {
  const CliArgs ok = make({"--port=0", "--host", "h", "--thermal", "--no-prefix-cache"});
  ok.require_known({"port", "host"}, {"thermal", "prefix-cache"});
  const CliArgs typo = make({"--port=0", "--bogus-flag"});
  EXPECT_EXIT(typo.require_known({"port"}, {}),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode), "unknown flag --bogus-flag");
  const CliArgs negated = make({"--no-port"});
  EXPECT_EXIT(negated.require_known({"port"}, {"thermal"}),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode), "unknown flag --no-port");
}

// require_known takes flags only: an unquoted multi-word value leaves its
// later words positional, and the first one is named instead of dropped.
TEST_F(CliUsageDeathTest, RequireKnownNamesTheFirstPositionalArgument) {
  const CliArgs split = make({"--prompt", "the", "history", "of", "--max-tokens=4"});
  EXPECT_EQ(split.get("prompt", ""), "the");
  EXPECT_EXIT(split.require_known({"prompt", "max-tokens"}, {}),
              ::testing::ExitedWithCode(CliArgs::kUsageExitCode),
              "unexpected argument 'history'");
}

TEST(CliTest, WellFormedValuesStillParse) {
  const CliArgs args = make({"--batch=-3", "--rps", "2.5e1", "--flag=ON"});
  EXPECT_EQ(args.get_int("batch", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("rps", 0.0), 25.0);
  EXPECT_TRUE(args.get_bool("flag", false));
}

TEST(StrictParseTest, IntAcceptsOnlyWholeNumbers) {
  long long v = -1;
  EXPECT_TRUE(parse_int_strict("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int_strict("  -7  ", v));
  EXPECT_EQ(v, -7);
  long long untouched = 123;
  EXPECT_FALSE(parse_int_strict("", untouched));
  EXPECT_FALSE(parse_int_strict("abc", untouched));
  EXPECT_FALSE(parse_int_strict("12abc", untouched));
  EXPECT_FALSE(parse_int_strict("1.5", untouched));
  EXPECT_FALSE(parse_int_strict("99999999999999999999999999", untouched));
  EXPECT_EQ(untouched, 123);
}

TEST(StrictParseTest, DoubleAcceptsOnlyFiniteNumbers) {
  double v = -1.0;
  EXPECT_TRUE(parse_double_strict("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(parse_double_strict("1e-3", v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  double untouched = 9.0;
  EXPECT_FALSE(parse_double_strict("", untouched));
  EXPECT_FALSE(parse_double_strict("abc", untouched));
  EXPECT_FALSE(parse_double_strict("3.5W", untouched));
  EXPECT_FALSE(parse_double_strict("1e999", untouched));
  EXPECT_FALSE(parse_double_strict("nan", untouched));
  EXPECT_FALSE(parse_double_strict("inf", untouched));
  EXPECT_DOUBLE_EQ(untouched, 9.0);
}

}  // namespace
}  // namespace orinsim
