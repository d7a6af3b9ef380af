// Streaming statistics and empirical CDFs.
//
// The paper's evaluation reports distributions almost exclusively as CDFs
// (Figs. 4b, 5, 6, 8, 9, 10, 11) plus aggregate means/sums; this module is
// the single implementation all benches and reports use.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dollymp {

/// Numerically stable streaming moments (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Coefficient of variation sd/mean; 0 when mean is 0.
  [[nodiscard]] double cv() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF over a sample set.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  void add(double x);

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool empty() const { return count() == 0; }

  /// Fraction of samples <= x, i.e. F(x).  0 on empty.
  [[nodiscard]] double fraction_at_most(double x) const;
  /// Inverse CDF: smallest sample v with F(v) >= q, q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Evenly spaced (quantile, value) points, suitable for printing a CDF
  /// series the way the paper's figures plot them.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points = 20) const;

  [[nodiscard]] const std::vector<double>& sorted_samples() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Quantile of an unsorted sample (copies + sorts; convenience for tests).
[[nodiscard]] double quantile_of(std::vector<double> samples, double q);

/// Process peak resident-set size in bytes (Linux /proc/self/status VmHWM);
/// 0 when unavailable.  Feeds the scale gate's RSS ceiling and SimStats.
[[nodiscard]] long long process_peak_rss_bytes();

}  // namespace dollymp
