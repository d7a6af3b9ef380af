#include "dollymp/sim/runtime_state.h"

#include <algorithm>

namespace dollymp {

int TaskRuntime::active_copies() const {
  int n = 0;
  for (const auto& c : copies) n += c.active ? 1 : 0;
  return n;
}

JobProgress JobRuntime::progress() const {
  JobProgress p;
  p.remaining_tasks.reserve(phases.size());
  p.phase_finished.reserve(phases.size());
  for (const auto& phase : phases) {
    p.remaining_tasks.push_back(phase.remaining_tasks);
    p.phase_finished.push_back(phase.finished);
  }
  return p;
}

double JobRuntime::remaining_volume(const Resources& cluster_total,
                                    double sigma_factor) const {
  if (volume_cache_valid_ && volume_cache_sigma_ == sigma_factor &&
      volume_cache_total_ == cluster_total) {
    return volume_cache_value_;
  }
  volume_cache_value_ =
      job_effective_volume_remaining(*spec, progress(), cluster_total, sigma_factor);
  volume_cache_sigma_ = sigma_factor;
  volume_cache_total_ = cluster_total;
  volume_cache_valid_ = true;
  return volume_cache_value_;
}

double JobRuntime::remaining_length(double sigma_factor) const {
  if (length_cache_valid_ && length_cache_sigma_ == sigma_factor) {
    return length_cache_value_;
  }
  length_cache_value_ = job_effective_length_remaining(*spec, progress(), sigma_factor);
  length_cache_sigma_ = sigma_factor;
  length_cache_valid_ = true;
  return length_cache_value_;
}

double JobRuntime::max_dominant_share(const Resources& cluster_total) const {
  double share = 0.0;
  for (const auto& phase : phases) {
    if (phase.finished) continue;
    share = std::max(share, phase.spec->demand.dominant_share(cluster_total));
  }
  return share;
}

}  // namespace dollymp
