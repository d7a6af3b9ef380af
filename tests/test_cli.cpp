// Tests for the shared command-line helpers (common/cli.h): --flag=value
// normalization, separator splitting, strict number parsing, and the
// did-you-mean rejection message every dollymp_* tool now emits for
// unknown flags.
#include "dollymp/common/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dollymp::cli {
namespace {

std::vector<std::string> normalize(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (auto& s : argv_strings) argv.push_back(s.data());
  return normalize_args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliNormalize, ExpandsEqualsFormIntoFlagValuePairs) {
  const auto args = normalize({"--jobs=50", "--scheduler", "drf"});
  ASSERT_EQ(args.size(), 4u);
  EXPECT_EQ(args[0], "--jobs");
  EXPECT_EQ(args[1], "50");
  EXPECT_EQ(args[2], "--scheduler");
  EXPECT_EQ(args[3], "drf");
}

TEST(CliNormalize, LeavesNonFlagArgumentsWithEqualsAlone) {
  // A value like a file name or key=value payload is not a flag.
  const auto args = normalize({"--out", "dir/name=weird.csv", "a=b"});
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[1], "dir/name=weird.csv");
  EXPECT_EQ(args[2], "a=b");
}

TEST(CliNormalize, KeepsValueWithEmbeddedEqualsIntact) {
  // Only the FIRST '=' splits: --define=a=b yields value "a=b".
  const auto args = normalize({"--define=a=b"});
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0], "--define");
  EXPECT_EQ(args[1], "a=b");
}

TEST(CliNormalize, EmptyArgvYieldsEmpty) {
  EXPECT_TRUE(normalize({}).empty());
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

}  // namespace
}  // namespace dollymp::cli
