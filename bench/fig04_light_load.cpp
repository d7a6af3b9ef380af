// Figure 4: lightly-loaded regime.  100 jobs (half PageRank — itself half
// 10 GB / half 1 GB inputs — and half 10 GB WordCount), inter-arrival time
// around 200 seconds, on the 30-node cluster.
//
//   (a) overall job flowtime per scheduler — DollyMP^2 ~10% below Capacity;
//   (b) CDF of job execution times — 95% of jobs under 350 s with DollyMP^2
//       vs ~80% under Capacity; DollyMP^2 beats DollyMP^1.
#include <iostream>

#include "bench_common.h"
#include "dollymp/workload/arrivals.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const Cluster cluster = Cluster::paper30();
  auto jobs = paper_app_mix(100, 42);
  assign_jittered_arrivals(jobs, 200.0, 0.25, 7);

  const std::vector<std::string> schedulers = {"capacity", "tetris", "dollymp0",
                                               "dollymp1", "dollymp2"};
  std::vector<SimResult> results;
  std::vector<std::pair<std::string, Cdf>> run_cdfs;
  for (const auto& key : schedulers) {
    results.push_back(run_workload(cluster, deployment_config(42), jobs, key));
    run_cdfs.emplace_back(key, running_time_cdf(results.back()));
  }

  print_flowtime_table("Figure 4a: total job flowtime, lightly loaded (100 jobs, ~200s gap)",
                       results);
  print_cdf_figure("Figure 4b: job execution time CDF (seconds at each decile)", run_cdfs);

  const SimResult& capacity = results[0];
  const SimResult& dollymp1 = results[3];
  const SimResult& dollymp2 = results[4];

  const double reduction = mean_flowtime_reduction(dollymp2, capacity);
  shape_check("Fig4a: DollyMP^2 reduces average flowtime vs Capacity (~10% in paper)",
              reduction, reduction > 0.03);

  // Pick the DollyMP^2 95th percentile as the reference cut and compare
  // what fraction of Capacity jobs meet it (paper: 95% vs 80% at 350 s).
  const double cut = running_time_cdf(dollymp2).quantile(0.95);
  const double capacity_frac = running_time_cdf(capacity).fraction_at_most(cut);
  shape_check("Fig4b: fewer Capacity jobs finish within DollyMP^2's p95 running time "
              "(paper: 80% vs 95%)",
              capacity_frac, capacity_frac < 0.945);

  const double d2_vs_d1 = mean_flowtime_reduction(dollymp2, dollymp1);
  shape_check("Fig4: DollyMP^2 outperforms DollyMP^1 when lightly loaded", d2_vs_d1,
              d2_vs_d1 > -0.02);
  return shape_status();
}
