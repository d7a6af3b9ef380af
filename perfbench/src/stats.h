// Order statistics for the end-to-end benchmark.  Percentiles use the
// nearest-rank definition, and tail_samples() is the sizing rule for them:
// a percentile is only reported when at least kMinTailSamples samples lie
// beyond it.  (Quartiles over result sets live in perfbench/compare.py.)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 10;

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// 0-based index of the nearest-rank q-percentile among n sorted samples.
[[nodiscard]] inline std::size_t percentile_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

/// Samples strictly after the nearest-rank q-percentile position.
[[nodiscard]] inline std::size_t tail_samples(std::size_t n, double q) {
  return n - 1 - percentile_rank(n, q);
}

/// True when the q-percentile of n samples has at least kMinTailSamples
/// samples beyond it.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && tail_samples(n, q) >= kMinTailSamples;
}

/// Nearest-rank q-percentile.  Reorders `values`.
[[nodiscard]] inline double percentile(std::vector<double>& values, double q) {
  const std::size_t at = percentile_rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(at),
                   values.end());
  return values[at];
}

}  // namespace perfbench
