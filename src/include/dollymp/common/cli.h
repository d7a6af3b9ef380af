// Shared command-line plumbing for the dollymp_* tools.
//
// Every driver (dollymp_sim, dollymp_chaos, dollymp_sweep, dollymp_service)
// lists each of its flags once, as a row of a table: name, value shape, one
// line of help and a setter.  parse() owns the dialect: `--flag value` and
// `--flag=value` are interchangeable, a missing value or an unknown flag
// (with a did-you-mean suggestion over the table's names) is a usage error,
// `--help` is generated from the rows, and a value the setter rejects exits
// 2 naming the flag.  Flag values with a grammar of their own (policy names,
// cluster specs, fault presets) are parsed by the library, whose
// std::invalid_argument becomes that same usage error.
#pragma once

#include <charconv>
#include <cstddef>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace dollymp::cli {

/// Split on a separator (cluster specs like google:300, fault specs like
/// MTBF:REPAIR, comma lists), keeping every item: "a,,b" has three items,
/// "a," two and an empty text one empty item.
[[nodiscard]] std::vector<std::string> split(const std::string& text, char sep);

/// split() that requires exactly `count` items, else throws
/// std::invalid_argument quoting `text`.
[[nodiscard]] std::vector<std::string> split_n(const std::string& text, char sep,
                                               std::size_t count);

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
/// An empty `field` leaves the message starting at the quoted text, for
/// parsers whose caller names the flag (flag setters, Cluster::from_spec).
template <typename T>
[[nodiscard]] T parse_number(const std::string& field, const std::string& text,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  const std::string prefix = field.empty() ? "" : field + ": ";
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || stop != end || ec == std::errc::invalid_argument) {
    throw std::invalid_argument(prefix + "'" + text + "' is not a number");
  }
  // !(lo <= value <= hi) also catches NaN.
  if (ec == std::errc::result_out_of_range || !(lo <= value && value <= hi)) {
    std::ostringstream message;
    message << prefix << "'" << text << "' is outside [" << lo << ", " << hi << "]";
    throw std::invalid_argument(message.str());
  }
  return value;
}

/// Print `message` to stderr and exit 2, the tools' usage-error status.
[[noreturn]] void exit_usage_error(const std::string& message);

/// `parse()` for a check that spans flags, run after cli::parse: the
/// std::invalid_argument a library parser throws (Cluster::from_spec,
/// make_named_policy) becomes a usage error prefixed with `flag`.
template <typename Parse>
[[nodiscard]] auto parse_with(const std::string& flag, Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    exit_usage_error(flag + ": " + e.what());
  }
}

/// Full rejection line for an unrecognized flag: `unknown option --hlep
/// (did you mean --help?)`, with the suggestion clause dropped when
/// closest_flag finds nothing.
[[nodiscard]] std::string unknown_flag_message(const std::string& flag,
                                               const std::vector<std::string>& known);

/// Write `text` to `path`; throws std::runtime_error naming the path.
void write_file(const std::string& path, const std::string& text);

/// Receives a flag's value ("" for a switch); throws std::invalid_argument
/// to reject it.
using Setter = std::function<void(const std::string&)>;

/// One row of a tool's flag table.
struct Flag {
  std::string name;   ///< "--jobs"
  std::string value;  ///< value shape for --help ("N", "MTBF:REPAIR"); empty: a switch
  std::string help;   ///< one line for --help
  Setter set;
};

/// The --help text: `about`, then one line per row and one for --help.
[[nodiscard]] std::string help(const std::string& about, const std::vector<Flag>& flags);

/// Apply argv[1..] to `flags` in order.  `--help`/`-h` prints help() to
/// stdout and exits 0.  An unknown flag, a missing value, a switch given
/// `=value` or a std::invalid_argument from a setter prints one line naming
/// the flag to stderr and exits 2.
void parse(int argc, char** argv, const std::string& about, const std::vector<Flag>& flags);

/// Setter: the switch sets `target`.
[[nodiscard]] Setter set_true(bool& target);

/// Setter: the value is stored as is.
[[nodiscard]] Setter set_text(std::string& target);

/// Setter: the value is parse_number() in [lo, hi].
template <typename T>
[[nodiscard]] Setter set_number(T& target, T lo = std::numeric_limits<T>::lowest(),
                                T hi = std::numeric_limits<T>::max()) {
  return [&target, lo, hi](const std::string& text) {
    target = parse_number<T>("", text, lo, hi);
  };
}

/// Setter: `set`, then `config.validate()`, so a value that leaves the
/// config invalid is rejected naming the flag.
template <typename Config, typename Set>
[[nodiscard]] Setter validated(Config& config, Set set) {
  return [&config, set](const std::string& text) {
    set(text);
    config.validate();
  };
}

/// Setter: a comma list, every item parse_number() in [lo, max].
template <typename T>
[[nodiscard]] Setter set_numbers(std::vector<T>& target, T lo) {
  return [&target, lo](const std::string& text) {
    target.clear();
    for (const std::string& item : split(text, ',')) {
      target.push_back(parse_number<T>("", item, lo));
    }
  };
}

}  // namespace dollymp::cli
