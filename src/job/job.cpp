#include "dollymp/job/job.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dollymp {

int JobSpec::total_tasks() const {
  int total = 0;
  for (const auto& p : phases) total += p.task_count;
  return total;
}

void JobSpec::validate() const {
  if (phases.empty()) throw std::invalid_argument("JobSpec: job must have >= 1 phase");
  // Every check below also rejects NaN, which compares false both ways.
  if (!std::isfinite(arrival_seconds)) {
    throw std::invalid_argument("JobSpec: arrival must be finite");
  }
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const auto& p = phases[k];
    if (p.task_count < 1) throw std::invalid_argument("JobSpec: phase needs >= 1 task");
    if (!(p.theta_seconds > 0.0) || !std::isfinite(p.theta_seconds)) {
      throw std::invalid_argument("JobSpec: theta must be finite and > 0");
    }
    if (!(p.sigma_seconds >= 0.0) || !std::isfinite(p.sigma_seconds)) {
      throw std::invalid_argument("JobSpec: sigma must be finite and >= 0");
    }
    const auto& dims = p.demand.dims;
    if (!std::all_of(dims.begin(), dims.end(), [](double d) { return std::isfinite(d); })) {
      throw std::invalid_argument("JobSpec: per-task demand must be finite");
    }
    if (!p.demand.non_negative() || p.demand.is_zero()) {
      throw std::invalid_argument("JobSpec: per-task demand must be positive");
    }
    for (const auto parent : p.parents) {
      if (parent < 0 || static_cast<std::size_t>(parent) >= phases.size()) {
        throw std::invalid_argument("JobSpec: parent index out of range");
      }
      if (static_cast<std::size_t>(parent) >= k) {
        throw std::invalid_argument(
            "JobSpec: phases must be listed in topological order (parent < child)");
      }
    }
  }
}

JobSpec JobSpec::single_task(JobId id, Resources demand, double theta, double sigma,
                             double arrival) {
  return single_phase(id, 1, demand, theta, sigma, arrival);
}

JobSpec JobSpec::single_phase(JobId id, int tasks, Resources demand, double theta,
                              double sigma, double arrival) {
  JobSpec job;
  job.id = id;
  job.name = "job-" + std::to_string(id);
  job.arrival_seconds = arrival;
  PhaseSpec phase;
  phase.name = "phase0";
  phase.task_count = tasks;
  phase.demand = demand;
  phase.theta_seconds = theta;
  phase.sigma_seconds = sigma;
  job.phases.push_back(std::move(phase));
  return job;
}

}  // namespace dollymp
