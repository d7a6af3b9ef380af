#include "dollymp/metrics/records.h"

#include <stdexcept>

namespace dollymp {

double SimResult::total_flowtime() const {
  double total = 0.0;
  for (const auto& j : jobs) total += j.flowtime();
  return total;
}

double SimResult::mean_flowtime() const {
  return jobs.empty() ? 0.0 : total_flowtime() / static_cast<double>(jobs.size());
}

double SimResult::total_resource_seconds() const {
  double total = 0.0;
  for (const auto& j : jobs) total += j.resource_seconds;
  return total;
}

double SimResult::cloned_task_fraction() const {
  long long tasks_total = 0;
  long long with_clones = 0;
  for (const auto& j : jobs) {
    tasks_total += j.total_tasks;
    with_clones += j.tasks_with_clones;
  }
  return tasks_total == 0 ? 0.0
                          : static_cast<double>(with_clones) / static_cast<double>(tasks_total);
}

const JobRecord& SimResult::job(JobId id) const {
  for (const auto& j : jobs) {
    if (j.id == id) return j;
  }
  throw std::out_of_range("SimResult: no job with id " + std::to_string(id));
}

}  // namespace dollymp
