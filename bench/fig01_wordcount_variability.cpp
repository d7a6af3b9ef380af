// Figure 1: running time of the same 4 GB WordCount job repeated 8 times on
// the (otherwise idle) 30-node cluster, under the Capacity scheduler and
// DollyMP^0/1/2.  Each repetition is submitted after the previous one
// finishes (no queueing), so the figure isolates straggler variability and
// the effect of cloning.
//
// Paper's reading: Capacity and DollyMP^0 vary a lot run-to-run; DollyMP^1/2
// are stable, and DollyMP^2 cuts the average running time by ~20%.
#include <iostream>

#include "bench_common.h"
#include "dollymp/common/stats.h"
#include "dollymp/common/table.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const Cluster cluster = Cluster::paper30();
  const int kRuns = 8;
  const std::vector<std::string> schedulers = {"capacity", "dollymp0", "dollymp1",
                                               "dollymp2"};

  std::cout << "Figure 1: 4GB WordCount repeated " << kRuns
            << "x on an idle 30-node cluster (seconds per run)\n";

  ConsoleTable table({"scheduler", "run1", "run2", "run3", "run4", "run5", "run6", "run7",
                      "run8", "mean", "sd"});
  double capacity_mean = 0.0;
  double dollymp2_mean = 0.0;
  double capacity_sd = 0.0;
  double dollymp2_sd = 0.0;

  for (const auto& key : schedulers) {
    RunningStats stats;
    std::vector<double> row;
    for (int run = 0; run < kRuns; ++run) {
      // One job per run: the cluster is idle between repetitions.  The
      // environment seed varies per run (background load changes over
      // time, Section 2) but is identical across schedulers.
      const std::vector<JobSpec> jobs{
          make_wordcount(0, 4.0, 0.0, paper_app_config())};
      const SimResult result =
          run_workload(cluster, deployment_config(1000 + run), jobs, key);
      const double seconds = result.jobs[0].running_time();
      stats.add(seconds);
      row.push_back(seconds);
    }
    row.push_back(stats.mean());
    row.push_back(stats.stddev());
    table.add_labeled_row(key, row, 0);
    if (key == "capacity") {
      capacity_mean = stats.mean();
      capacity_sd = stats.stddev();
    }
    if (key == "dollymp2") {
      dollymp2_mean = stats.mean();
      dollymp2_sd = stats.stddev();
    }
  }
  std::cout << table.render() << "\n";

  const double reduction = 1.0 - dollymp2_mean / capacity_mean;
  shape_check("Fig1: DollyMP^2 cuts mean running time by ~20% vs Capacity",
              reduction, reduction > 0.08);
  shape_check("Fig1: DollyMP^2 is more stable (smaller run-to-run sd)",
              dollymp2_sd / capacity_sd, dollymp2_sd < capacity_sd);
  return shape_status();
}
