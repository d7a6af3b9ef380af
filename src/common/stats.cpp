#include "dollymp/common/stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace dollymp {

// ---------------------------------------------------------- RunningStats ---

void RunningStats::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const { return mean_ == 0.0 ? 0.0 : stddev() / std::abs(mean_); }

// ------------------------------------------------------------------- Cdf ---

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)), sorted_(false) {}

void Cdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

std::size_t Cdf::count() const { return samples_.size(); }

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::fraction_at_most(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::quantile on empty CDF");
  q = std::clamp(q, 0.0, 1.0);
  ensure_sorted();
  if (q <= 0.0) return samples_.front();
  const auto n = static_cast<double>(samples_.size());
  const auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

double Cdf::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double Cdf::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Cdf::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

std::vector<std::pair<double, double>> Cdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(q, quantile(q));
  }
  return out;
}

const std::vector<double>& Cdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

double quantile_of(std::vector<double> samples, double q) {
  return Cdf(std::move(samples)).quantile(q);
}

long long process_peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    long long kb = 0;
    std::istringstream fields(line.substr(6));
    fields >> kb;
    return kb * 1024;
  }
#endif
  return 0;
}

}  // namespace dollymp
