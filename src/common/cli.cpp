#include "dollymp/common/cli.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

namespace dollymp::cli {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  for (std::size_t start = 0;;) {
    const std::size_t at = text.find(sep, start);
    parts.push_back(text.substr(start, at - start));
    if (at == std::string::npos) return parts;
    start = at + 1;
  }
}

std::vector<std::string> split_n(const std::string& text, char sep, std::size_t count) {
  std::vector<std::string> parts = split(text, sep);
  if (parts.size() != count) {
    throw std::invalid_argument("'" + text + "' has " + std::to_string(parts.size()) +
                                " '" + sep + "'-separated items, wants " +
                                std::to_string(count));
  }
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

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(text.data(), static_cast<std::streamsize>(text.size()))) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string help(const std::string& about, const std::vector<Flag>& flags) {
  const auto head = [](const Flag& flag) {
    return flag.value.empty() ? flag.name : flag.name + " " + flag.value;
  };
  std::size_t width = std::string("--help").size();
  for (const Flag& flag : flags) width = std::max(width, head(flag).size());
  std::string out = about + "\n\nflags (--flag VALUE or --flag=VALUE):\n";
  const auto line = [&](const std::string& left, const std::string& text) {
    out += "  " + left + std::string(width + 2 - left.size(), ' ') + text + "\n";
  };
  for (const Flag& flag : flags) line(head(flag), flag.help);
  line("--help", "print this help and exit");
  return out;
}

void parse(int argc, char** argv, const std::string& about, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    // `--flag=value`: only the first '=' of a `--` argument splits, so a
    // value may hold more; a separate value argument is taken whole.
    std::string arg = argv[i];
    std::optional<std::string> attached;
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      attached = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << help(about, flags);
      std::exit(0);
    }
    const auto row = std::find_if(flags.begin(), flags.end(),
                                  [&](const Flag& flag) { return flag.name == arg; });
    if (row == flags.end()) {
      std::vector<std::string> known{"--help"};
      for (const Flag& flag : flags) known.push_back(flag.name);
      exit_usage_error(unknown_flag_message(arg, known));
    }
    std::string value;
    if (row->value.empty()) {
      if (attached) exit_usage_error(arg + ": takes no value");
    } else if (attached) {
      value = *attached;
    } else {
      if (i + 1 >= argc) exit_usage_error("missing value for " + arg);
      value = argv[++i];
    }
    try {
      row->set(value);
    } catch (const std::invalid_argument& e) {
      exit_usage_error(arg + ": " + e.what());
    }
  }
}

Setter set_true(bool& target) {
  return [&target](const std::string&) { target = true; };
}

Setter set_text(std::string& target) {
  return [&target](const std::string& text) { target = text; };
}

}  // namespace dollymp::cli
