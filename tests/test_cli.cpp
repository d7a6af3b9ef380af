// Tests for the shared command-line helpers (common/cli.h): --flag=value
// normalization, separator splitting, strict number parsing, the
// did-you-mean rejection message, and the flag table every dollymp_* tool
// parses its command line with (including RunSpec's shared rows).
#include "dollymp/common/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/common/experiment.h"

namespace dollymp::cli {
namespace {

/// fn(argc, argv) for the command line "tool" + `args`.
template <typename Fn>
auto with_argv(std::vector<std::string> args, Fn fn) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (auto& s : args) argv.push_back(s.data());
  return fn(static_cast<int>(argv.size()), argv.data());
}

/// A three-row table over one struct, as a tool builds it.
struct Sample {
  int jobs = 0;
  std::string out;
  bool quiet = false;
};

std::vector<Flag> sample_flags(Sample& sample) {
  return {{"--jobs", "N", "jobs to run", set_number(sample.jobs, 1)},
          {"--out", "FILE", "where the output goes", set_text(sample.out)},
          {"--quiet", "", "say less", set_true(sample.quiet)}};
}

Sample parse_sample(std::vector<std::string> args) {
  Sample sample;
  const std::vector<Flag> flags = sample_flags(sample);
  with_argv(std::move(args),
            [&](int argc, char** argv) { parse(argc, argv, "usage: tool", flags); });
  return sample;
}

// cli::parse reads the `--flag=value` form itself.

TEST(CliNormalize, ExpandsEqualsFormIntoFlagValuePairs) {
  const Sample sample = parse_sample({"--jobs=50", "--out", "drf"});
  EXPECT_EQ(sample.jobs, 50);
  EXPECT_EQ(sample.out, "drf");
}

TEST(CliNormalize, LeavesNonFlagArgumentsWithEqualsAlone) {
  // A value like a file name or key=value payload is not a flag: a value
  // argument is taken whole, and a stray one is refused as it stands.
  EXPECT_EQ(parse_sample({"--out", "dir/name=weird.csv"}).out, "dir/name=weird.csv");
  EXPECT_EXIT((void)parse_sample({"a=b"}), testing::ExitedWithCode(2), "unknown option a=b");
}

TEST(CliNormalize, KeepsValueWithEmbeddedEqualsIntact) {
  // Only the FIRST '=' splits: --out=a=b yields value "a=b".
  EXPECT_EQ(parse_sample({"--out=a=b"}).out, "a=b");
}

TEST(CliNormalize, EmptyArgvYieldsEmpty) {
  const Sample sample = parse_sample({});
  EXPECT_EQ(sample.jobs, 0);
  EXPECT_TRUE(sample.out.empty());
  EXPECT_FALSE(sample.quiet);
}

TEST(CliSplit, SplitsOnSeparator) {
  const auto parts = split("google:300", ':');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "google");
  EXPECT_EQ(parts[1], "300");
}

TEST(CliSplit, KeepsEmptyLeadingAndMiddleTokens) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(CliSplit, KeepsTrailingEmptyItem) {
  const auto parts = split("1,2,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "2");
  EXPECT_EQ(parts[2], "");
}

TEST(CliSplit, EmptyTextIsOneEmptyItem) {
  EXPECT_EQ(split("", ','), std::vector<std::string>{""});
}

TEST(CliEditDistance, BasicDistances) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
  EXPECT_EQ(edit_distance("--help", "--help"), 0u);
  EXPECT_EQ(edit_distance("--hlep", "--help"), 2u);  // transposition = 2 edits
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
}

TEST(CliClosestFlag, SuggestsNearbyFlag) {
  const std::vector<std::string> known = {"--help", "--jobs", "--scheduler"};
  EXPECT_EQ(closest_flag("--hlep", known), "--help");
  EXPECT_EQ(closest_flag("--job", known), "--jobs");
  EXPECT_EQ(closest_flag("--schedular", known), "--scheduler");
}

TEST(CliClosestFlag, RefusesImplausibleSuggestions) {
  const std::vector<std::string> known = {"--help", "--jobs"};
  EXPECT_EQ(closest_flag("--totally-unrelated-flag", known), "");
}

TEST(CliClosestFlag, TieBreaksTowardEarlierEntry) {
  // Both candidates are distance 1 from "--jobz"; the first listed wins so
  // the suggestion is deterministic.
  const std::vector<std::string> known = {"--jobs", "--joba"};
  EXPECT_EQ(closest_flag("--jobz", known), "--jobs");
}

TEST(CliUnknownFlagMessage, IncludesSuggestionWhenClose) {
  const std::vector<std::string> known = {"--help", "--jobs"};
  EXPECT_EQ(unknown_flag_message("--hlep", known),
            "unknown option --hlep (did you mean --help?)");
}

TEST(CliUnknownFlagMessage, OmitsSuggestionWhenNothingIsClose) {
  const std::vector<std::string> known = {"--help"};
  EXPECT_EQ(unknown_flag_message("--zzzzzzzzzzzz", known),
            "unknown option --zzzzzzzzzzzz");
}

/// The message parse_number throws for `text`, or "" if it parses.
template <typename T>
std::string rejection(const std::string& text, T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max()) {
  try {
    (void)parse_number("--flag", text, lo, hi);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliParseNumber, AcceptsWholeTokensUpToEachTypesLimits) {
  EXPECT_EQ(parse_number<int>("--n", "2147483647"), 2147483647);
  EXPECT_EQ(parse_number<int>("--n", "-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(parse_number<std::uint64_t>("--seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<long long>("--slots", "-9223372036854775808"),
            std::numeric_limits<long long>::min());
  EXPECT_EQ(parse_number<double>("--gap", "1e308"), 1e308);
  EXPECT_EQ(parse_number<double>("--gap", "-2.5"), -2.5);
  EXPECT_EQ(parse_number("--k", "9", 0, 9), 9);
  EXPECT_EQ(parse_number("--k", "0", 0, 9), 0);
}

TEST(CliParseNumber, RejectsValuesBeyondTheType) {
  EXPECT_NE(rejection<int>("2147483648"), "");
  EXPECT_NE(rejection<int>("-2147483649"), "");
  EXPECT_NE(rejection<int>("99999999999999999999"), "");
  EXPECT_NE(rejection<std::uint64_t>("18446744073709551616"), "");
  EXPECT_NE(rejection<std::uint64_t>("-1"), "");
  EXPECT_NE(rejection<std::size_t>("-0"), "");
  EXPECT_NE(rejection<double>("1e309"), "");
  EXPECT_NE(rejection<double>("inf"), "");
  EXPECT_NE(rejection<double>("nan"), "");
}

TEST(CliParseNumber, RejectsValuesOutsideTheRange) {
  EXPECT_EQ(rejection("10", 0, 9), "--flag: '10' is outside [0, 9]");
  EXPECT_EQ(rejection("-1", 0, 9), "--flag: '-1' is outside [0, 9]");
  EXPECT_NE(rejection("-0.5", 0.0, 1.0), "");
  EXPECT_NE(rejection("1.5", 0.0, 1.0), "");
  EXPECT_EQ(rejection("1", 0.0, 1.0), "");
}

TEST(CliParseNumber, RejectsAnythingButOneWholeNumber) {
  for (const char* text : {"", "abc", "2x", "30000x", "1:x", " 1", "1 ", "+1", "0x10", "1,2"}) {
    EXPECT_EQ(rejection<int>(text), std::string("--flag: '") + text + "' is not a number")
        << "'" << text << "'";
  }
  EXPECT_NE(rejection<double>("2.5abc"), "");
  EXPECT_NE(rejection<double>("1e"), "");
}

TEST(CliFlags, EqualsFormAndSpaceFormAgree) {
  const Sample spaced = parse_sample({"--jobs", "5", "--out", "a=b.csv", "--quiet"});
  const Sample equals = parse_sample({"--jobs=5", "--out=a=b.csv", "--quiet"});
  EXPECT_EQ(spaced.jobs, 5);
  EXPECT_EQ(spaced.out, "a=b.csv");
  EXPECT_TRUE(spaced.quiet);
  EXPECT_EQ(equals.jobs, spaced.jobs);
  EXPECT_EQ(equals.out, spaced.out);
  EXPECT_EQ(equals.quiet, spaced.quiet);
}

TEST(CliFlags, UsageErrorsExitTwoNamingTheFlag) {
  EXPECT_EXIT((void)parse_sample({"--quiet", "--jobs"}), testing::ExitedWithCode(2),
              "missing value for --jobs");
  EXPECT_EXIT((void)parse_sample({"--qiuet"}), testing::ExitedWithCode(2),
              "unknown option --qiuet \\(did you mean --quiet\\?\\)");
  EXPECT_EXIT((void)parse_sample({"--jobs", "abc"}), testing::ExitedWithCode(2),
              "--jobs: 'abc' is not a number");
  EXPECT_EXIT((void)parse_sample({"--quiet=1"}), testing::ExitedWithCode(2),
              "--quiet: takes no value");
  Sample sample;
  std::vector<Flag> flags = sample_flags(sample);
  flags.push_back({"--mode", "M", "a mode", [](const std::string& text) {
                     throw std::invalid_argument("no mode '" + text + "'");
                   }});
  EXPECT_EXIT(with_argv({"--mode", "x"},
                        [&](int argc, char** argv) { parse(argc, argv, "", flags); }),
              testing::ExitedWithCode(2), "--mode: no mode 'x'");
}

TEST(CliFlags, HelpListsEveryRowAndExitsZero) {
  Sample sample;
  const std::vector<Flag> flags = sample_flags(sample);
  const std::string text = help("usage: tool", flags);
  EXPECT_EQ(text.rfind("usage: tool\n", 0), 0u);
  for (const Flag& flag : flags) {
    const std::string head = flag.value.empty() ? flag.name : flag.name + " " + flag.value;
    EXPECT_NE(text.find("  " + head + "  "), std::string::npos) << head;
    EXPECT_NE(text.find(flag.help + "\n"), std::string::npos) << flag.help;
  }
  EXPECT_NE(text.find("  --help  "), std::string::npos);
  EXPECT_EXIT((void)parse_sample({"--jobs", "2", "--help"}), testing::ExitedWithCode(0), "");
}

/// The SimConfig the RunSpec fault rows build from `args`.
SimConfig fault_config(std::vector<std::string> args) {
  RunSpec run;
  const std::vector<Flag> flags =
      run.flags({"--failures", "--rack-faults", "--fail-slow", "--copy-faults", "--weibull"});
  with_argv(std::move(args), [&](int argc, char** argv) { parse(argc, argv, "", flags); });
  return run.config;
}

/// Every fault field the rows write, flattened for comparison.
std::vector<double> fault_fields(const SimConfig& config) {
  const FailureConfig& crash = config.failures;
  const FaultConfig& faults = config.faults;
  std::vector<double> fields = {
      static_cast<double>(crash.enabled), crash.mean_time_to_failure_seconds,
      crash.mean_repair_seconds, static_cast<double>(faults.crash_dist),
      faults.crash_weibull_shape, static_cast<double>(faults.rack.enabled),
      static_cast<double>(faults.fail_slow.enabled), faults.fail_slow.slowdown_factor,
      static_cast<double>(faults.copy.enabled)};
  for (const FaultDelaySpec* spec :
       {&faults.rack.time_to_failure, &faults.rack.repair, &faults.fail_slow.time_to_onset,
        &faults.fail_slow.recovery, &faults.copy.inter_fault}) {
    fields.insert(fields.end(),
                  {static_cast<double>(spec->dist), spec->mean_seconds, spec->weibull_shape});
  }
  return fields;
}

TEST(CliFlags, WeibullAndFaultRatesCommute) {
  const SimConfig before = fault_config({"--weibull", "0.8", "--rack-faults", "1500:200"});
  const SimConfig after = fault_config({"--rack-faults", "1500:200", "--weibull", "0.8"});
  EXPECT_EQ(fault_fields(before), fault_fields(after));
  EXPECT_TRUE(after.faults.rack.enabled);
  EXPECT_EQ(after.faults.rack.time_to_failure.dist, FaultDelayDist::kWeibull);
  EXPECT_EQ(after.faults.rack.time_to_failure.weibull_shape, 0.8);
  EXPECT_EQ(after.faults.rack.time_to_failure.mean_seconds, 1500.0);
  EXPECT_EQ(after.faults.rack.repair.mean_seconds, 200.0);
  EXPECT_FALSE(after.failures.enabled);
}

TEST(CliFlags, ZeroMtbfLeavesCrashesOff) {
  EXPECT_FALSE(fault_config({"--failures", "0:100"}).failures.enabled);
  EXPECT_TRUE(fault_config({"--failures", "600:120"}).failures.enabled);
}

}  // namespace
}  // namespace dollymp::cli
