// Extension bench: the fairness cost of flowtime-optimal scheduling.
//
// Size-based priorities (DollyMP, SVF, Tetris's SRPT nudge) buy their
// flowtime wins by making big jobs wait — a trade-off the paper does not
// quantify.  This table reports, for every scheduler under the
// heavily-loaded PageRank workload, total flowtime alongside Jain's
// fairness index over per-job slowdowns and the p95 slowdown, plus the
// Hopper baseline from the related work (speculation-aware but
// non-work-conserving, Section 7's criticism).
#include <iostream>

#include "dollymp/common/table.h"
#include "dollymp/sched/hopper.h"
#include "heavy_load.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const Cluster cluster = Cluster::paper30();
  auto jobs = heavy_jobs("pagerank", 2022);

  ConsoleTable table(
      {"scheduler", "total_flow_s", "jain_fairness", "p95_slowdown", "p50_slowdown"});

  double dollymp_flow = 0.0;
  double drf_fairness = 0.0;
  double dollymp_fairness = 0.0;
  double hopper_flow = 0.0;
  double capacity_flow = 0.0;

  auto record = [&](const SimResult& result) {
    const Cdf slowdowns = slowdown_cdf(result);
    const double jain = jain_fairness_of_slowdowns(result);
    table.add_labeled_row(result.scheduler,
                          {result.total_flowtime(), jain, slowdowns.quantile(0.95),
                           slowdowns.median()},
                          2);
    if (result.scheduler == "dollymp^2") {
      dollymp_flow = result.total_flowtime();
      dollymp_fairness = jain;
    }
    if (result.scheduler == "drf") drf_fairness = jain;
    if (result.scheduler == "hopper") hopper_flow = result.total_flowtime();
    if (result.scheduler == "capacity") capacity_flow = result.total_flowtime();
  };

  for (const std::string key :
       {"capacity", "drf", "carbyne", "tetris", "svf", "dollymp0", "dollymp2"}) {
    record(run_workload(cluster, deployment_config(2022), jobs, key));
  }
  {
    HopperScheduler hopper;
    record(simulate(cluster, deployment_config(2022), jobs, hopper));
  }

  std::cout << banner("Extension: flowtime vs fairness, heavy load (500 PageRank jobs)");
  std::cout << table.render() << "\n";

  shape_check("DRF is at least as fair (Jain index) as DollyMP^2 — the price of "
              "size-based priority",
              drf_fairness - dollymp_fairness, drf_fairness >= dollymp_fairness - 0.05);
  shape_check("Hopper (speculation-aware, non-work-conserving) beats Capacity but "
              "trails DollyMP^2 (Section 7's argument)",
              hopper_flow / dollymp_flow,
              hopper_flow < capacity_flow && dollymp_flow < hopper_flow * 1.02);
  return shape_status();
}
