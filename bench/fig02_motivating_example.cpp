// Figure 2: the motivating three-job example on one normalized server.
//
//   Job 1: demand (1.00, 1.00), expected 20 s  (fills the server)
//   Job 2: demand (0.25, 0.25), expected  8 s
//   Job 3: demand (0.25, 0.25), expected  8 s
//
// Tetris picks Job 1 first (largest alignment score a + eps*p), serializing
// the small jobs behind it.  DollyMP's knapsack priorities schedule Jobs
// 2+3 first *with one clone each* (speedup 8 s -> 6 s for the Pareto shape
// used here), then Job 1.  The paper reports 46 s total completion under
// Tetris vs 28 s under DollyMP; the reproduction target is the shape:
// DollyMP's total is a large factor below Tetris's.
//
// The work-based execution model is used so completion times equal their
// expectations (the figure reasons in expectations).
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "dollymp/common/table.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

std::vector<JobSpec> figure_jobs() {
  // Pareto shape alpha = 2.5 gives h(2) = 1 + (1 - 1/2)/(1.5) = 4/3, the
  // 8 s -> 6 s speedup of the figure.  cv^2 = 1/(alpha*(alpha-2)) = 0.8.
  const double cv = std::sqrt(0.8);
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec::single_task(1, {1.0, 1.0}, 20.0, 0.0));
  jobs.push_back(JobSpec::single_task(2, {0.25, 0.25}, 8.0, cv * 8.0));
  jobs.push_back(JobSpec::single_task(3, {0.25, 0.25}, 8.0, cv * 8.0));
  return jobs;
}

SimConfig figure_config() {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 1;
  config.model = ExecutionModel::kWorkBased;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

}  // namespace

int main() {
  const Cluster cluster = Cluster::single({1.0, 1.0});
  std::cout << "Figure 2: motivating example — one unit server, three jobs\n"
            << "  Job1 (1.00,1.00) 20s | Job2 (0.25,0.25) 8s | Job3 (0.25,0.25) 8s\n";

  ConsoleTable table({"scheduler", "J1_done", "J2_done", "J3_done", "total_completion"});
  double tetris_total = 0.0;
  double dollymp_total = 0.0;
  for (const auto& key : {std::string("tetris"), std::string("dollymp1")}) {
    const SimResult result = run_workload(cluster, figure_config(), figure_jobs(), key);
    const double total = result.total_flowtime();
    table.add_labeled_row(key, {result.job(1).finish_seconds, result.job(2).finish_seconds,
                                result.job(3).finish_seconds, total},
                          0);
    if (key == "tetris") tetris_total = total;
    else dollymp_total = total;
  }
  std::cout << table.render() << "\n";
  std::cout << "paper reference: Tetris total = 46 s, DollyMP total = 28 s (ratio 0.61)\n";

  shape_check("Fig2: DollyMP schedules small jobs (with clones) first and its total "
              "completion is well below Tetris's",
              dollymp_total / tetris_total, dollymp_total < 0.75 * tetris_total);

  // The cloning detail: Job 2 and Job 3 must have received one clone each.
  const SimResult dmp = run_workload(cluster, figure_config(), figure_jobs(), "dollymp1");
  shape_check("Fig2: DollyMP makes one clone for Job2 and Job3",
              static_cast<double>(dmp.job(2).clones_launched + dmp.job(3).clones_launched),
              dmp.job(2).clones_launched == 1 && dmp.job(3).clones_launched == 1);
  return shape_status();
}
