#include "dollymp/common/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace dollymp::cli {

std::vector<std::string> normalize_args(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  return args;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string token;
  while (std::getline(ss, token, sep)) parts.push_back(token);
  return parts;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Two-row dynamic program; flags are short so this is plenty.
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, subst});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

std::string closest_flag(const std::string& flag,
                         const std::vector<std::string>& known) {
  const std::size_t budget = std::max<std::size_t>(2, flag.size() / 3);
  std::string best;
  std::size_t best_distance = budget + 1;
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(flag, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

void exit_usage_error(const std::string& message) {
  std::cerr << message << "\n";
  std::exit(2);
}

std::string unknown_flag_message(const std::string& flag,
                                 const std::vector<std::string>& known) {
  std::string message = "unknown option " + flag;
  const std::string suggestion = closest_flag(flag, known);
  if (!suggestion.empty()) message += " (did you mean " + suggestion + "?)";
  return message;
}

}  // namespace dollymp::cli
