#include "dollymp/sched/priority.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dollymp/sched/knapsack.h"

namespace dollymp {

PriorityResult compute_transient_priorities(const std::vector<PriorityJobInput>& jobs) {
  PriorityResult result;
  result.priority.assign(jobs.size(), 0);
  if (jobs.empty()) return result;

  double total_volume = 0.0;
  double max_dominant = 0.0;
  double max_length = 1.0;
  for (const auto& j : jobs) {
    if (j.volume < 0.0 || j.length < 0.0) {
      throw std::invalid_argument("priorities: negative volume/length");
    }
    total_volume += j.volume;
    max_dominant = std::max(max_dominant, j.dominant);
    max_length = std::max(max_length, j.length);
  }
  // Guard the capacity margin: a job may dominate a whole dimension.
  max_dominant = std::min(max_dominant, 1.0 - 1e-6);

  const double horizon = std::max(1.0, total_volume / (1.0 - max_dominant));
  int g = static_cast<int>(std::ceil(std::log2(horizon)));
  // Extend so every job falls into some B_l (e_j <= 2^l must eventually
  // hold) and so the final budget covers the total volume.
  g = std::max({g, 1, static_cast<int>(std::ceil(std::log2(std::max(1.0, max_length))))});
  g = std::min(g + 1, 62);

  // Round-filter candidates, reused by every doubling round.
  std::vector<double> weights;
  std::vector<std::size_t> members;
  weights.reserve(jobs.size());
  members.reserve(jobs.size());

  std::size_t assigned = 0;
  int l = 1;
  for (; l <= 62 && assigned < jobs.size(); ++l) {
    const double budget = std::ldexp(1.0, l);  // 2^l
    // B_l = unassigned-or-assigned jobs with e_j <= 2^l; jobs already
    // assigned keep their class but still occupy budget in later rounds
    // per Algorithm 1 (the knapsack is re-solved over all of B_l).
    weights.clear();
    members.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].length <= budget + 1e-12) {
        weights.push_back(jobs[i].volume);
        members.push_back(i);
      }
    }
    if (members.empty()) continue;
    const KnapsackPick pick = knapsack_unit_profit(weights, budget);
    for (const auto w_index : pick.chosen) {
      const std::size_t job_index = members[w_index];
      if (result.priority[job_index] == 0) {
        result.priority[job_index] = l;
        ++assigned;
      }
    }
    if (l >= g && assigned == jobs.size()) break;
  }
  result.rounds = l;

  // Jobs the oracle never selected (possible only under adversarial volume
  // vs. length scaling) go to the last class + 1.
  for (auto& p : result.priority) {
    if (p == 0) p = result.rounds + 1;
  }
  return result;
}

PriorityResult compute_weighted_transient_priorities(
    const std::vector<WeightedPriorityJobInput>& jobs) {
  PriorityResult result;
  result.priority.assign(jobs.size(), 0);
  if (jobs.empty()) return result;

  double total_volume = 0.0;
  double max_dominant = 0.0;
  double max_length = 1.0;
  for (const auto& j : jobs) {
    if (j.volume < 0.0 || j.length < 0.0) {
      throw std::invalid_argument("priorities: negative volume/length");
    }
    if (!(j.weight > 0.0)) {
      throw std::invalid_argument("priorities: weights must be > 0");
    }
    total_volume += j.volume;
    max_dominant = std::max(max_dominant, j.dominant);
    max_length = std::max(max_length, j.length);
  }
  max_dominant = std::min(max_dominant, 1.0 - 1e-6);

  const double horizon = std::max(1.0, total_volume / (1.0 - max_dominant));
  int g = static_cast<int>(std::ceil(std::log2(horizon)));
  g = std::max({g, 1, static_cast<int>(std::ceil(std::log2(std::max(1.0, max_length))))});
  g = std::min(g + 1, 62);

  std::size_t assigned = 0;
  int l = 1;
  for (; l <= 62 && assigned < jobs.size(); ++l) {
    const double budget = std::ldexp(1.0, l);
    std::vector<double> weights;
    std::vector<double> profits;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].length <= budget + 1e-12) {
        weights.push_back(jobs[i].volume);
        profits.push_back(jobs[i].weight);
        members.push_back(i);
      }
    }
    if (members.empty()) continue;
    const KnapsackPick pick = knapsack_branch_and_bound(weights, profits, budget);
    for (const auto w_index : pick.chosen) {
      const std::size_t job_index = members[w_index];
      if (result.priority[job_index] == 0) {
        result.priority[job_index] = l;
        ++assigned;
      }
    }
    if (l >= g && assigned == jobs.size()) break;
  }
  result.rounds = l;
  for (auto& p : result.priority) {
    if (p == 0) p = result.rounds + 1;
  }
  return result;
}

}  // namespace dollymp
