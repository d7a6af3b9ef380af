// Shared command-line plumbing for the dollymp_* tools.
//
// Every driver (dollymp_sim, dollymp_chaos, dollymp_sweep, dollymp_service)
// speaks the same flag dialect: `--flag value` and `--flag=value` are
// interchangeable, and an unknown flag is rejected with a did-you-mean
// suggestion computed over the tool's known-flag list instead of a bare
// "unknown option".  The helpers here are the one implementation of that
// dialect; the tools keep their own flag dispatch (the flag sets differ)
// but share normalization, value splitting, number parsing and the
// rejection message.
#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dollymp::cli {

/// argv[1..] with every `--flag=value` expanded into `--flag` `value`, so a
/// dispatch loop only ever sees the space-separated spelling.  Lone `=`
/// inside non-flag arguments (file names, cluster specs) is left alone.
[[nodiscard]] std::vector<std::string> normalize_args(int argc, char** argv);

/// Split on a separator (cluster specs like google:300, fault specs like
/// MTBF:REPAIR).  An empty text yields one empty part, matching getline.
[[nodiscard]] std::vector<std::string> split(const std::string& text, char sep);

/// Levenshtein edit distance, the did-you-mean metric.
[[nodiscard]] std::size_t edit_distance(const std::string& a, const std::string& b);

/// The known flag closest to `flag`, or "" when nothing is plausibly close
/// (distance must be <= max(2, |flag|/3) — "--hlep" suggests "--help",
/// random typos suggest nothing).  Ties break toward the earlier entry so
/// suggestion order is deterministic.
[[nodiscard]] std::string closest_flag(const std::string& flag,
                                       const std::vector<std::string>& known);

/// `text` parsed whole as a T (an integer type or double) by
/// std::from_chars and checked against [lo, hi].  Empty text, a character
/// from_chars does not read (a leading '+' or space included), trailing
/// text, a value T cannot hold, NaN or a value outside the range throws
/// std::invalid_argument naming `field` — the flag or spec field — and
/// quoting `text`:
///   --jobs: 'abc' is not a number
///   --jobs: '-3' is outside [1, 2147483647]
template <typename T>
[[nodiscard]] T parse_number(const std::string& field, const std::string& text,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || stop != end || ec == std::errc::invalid_argument) {
    throw std::invalid_argument(field + ": '" + text + "' is not a number");
  }
  // !(lo <= value <= hi) also catches NaN.
  if (ec == std::errc::result_out_of_range || !(lo <= value && value <= hi)) {
    std::ostringstream message;
    message << field << ": '" << text << "' is outside [" << lo << ", " << hi << "]";
    throw std::invalid_argument(message.str());
  }
  return value;
}

/// Print `message` to stderr and exit 2, the tools' usage-error status.
[[noreturn]] void exit_usage_error(const std::string& message);

/// parse_number for a tool's command line: a bad value is a usage error.
template <typename T>
[[nodiscard]] T parse_flag(const std::string& field, const std::string& text, T lo,
                           T hi = std::numeric_limits<T>::max()) {
  try {
    return parse_number(field, text, lo, hi);
  } catch (const std::invalid_argument& e) {
    exit_usage_error(e.what());
  }
}

/// Full rejection line for an unrecognized flag: `unknown option --hlep
/// (did you mean --help?)`, with the suggestion clause dropped when
/// closest_flag finds nothing.
[[nodiscard]] std::string unknown_flag_message(const std::string& flag,
                                               const std::vector<std::string>& known);

}  // namespace dollymp::cli
