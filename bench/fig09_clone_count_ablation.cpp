// Figure 9: how many clones per task?  DollyMP^1/2/3 on the trace-driven
// workload — job speedup (relative to DollyMP^1) and total resource usage.
//
// Paper: going from 1 to 2 clones helps >30% of jobs reduce flowtime by
// 20%; going from 2 to 3 only adds ~5% of jobs at ~15% extra resources —
// hence the default of two clones.  DESIGN.md also calls out the
// smallest-first clone ordering (Section 4.1) as an ablation; the naive
// variant (DollyMP^2 with smallest_first_clones off) clones largest jobs
// first.
#include <iostream>

#include "dollymp/common/table.h"
#include "trace_sim.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const SimResult d0 = trace_run("dollymp0");
  const SimResult d1 = trace_run("dollymp1");
  const SimResult d2 = trace_run("dollymp2");
  const SimResult d3 = trace_run("dollymp3", 99, kTraceServers, /*max_copies_per_task=*/4);
  DollyMPConfig naive_order;
  naive_order.smallest_first_clones = false;
  const SimResult naive = trace_run("dollymp2", 99, kTraceServers, 3, 0.31, naive_order);

  std::cout << banner("Figure 9: clone-count ablation (trace-driven)");
  ConsoleTable table({"variant", "mean_flow_s", "total_resource_s", "cloned_task_frac",
                      "clones"});
  for (const SimResult* r : {&d0, &d1, &d2, &d3, &naive}) {
    long long clones = 0;
    for (const auto& j : r->jobs) clones += j.clones_launched;
    table.add_labeled_row(r->scheduler + (r == &naive ? " (naive order)" : ""),
                          {r->mean_flowtime(), r->total_resource_seconds(),
                           r->cloned_task_fraction(), static_cast<double>(clones)},
                          2);
  }
  std::cout << table.render() << "\n";

  // Per-job speedup fractions relative to DollyMP^1 (the paper's Fig. 9a).
  const PairedRatios r2 = paired_ratios(d2, d1);
  const PairedRatios r3 = paired_ratios(d3, d1);
  const double frac2 = r2.fraction_flowtime_reduced_by(0.20);
  const double frac3 = r3.fraction_flowtime_reduced_by(0.20);
  std::cout << "jobs with >=20% flowtime reduction vs DollyMP^1:  2 clones: " << frac2
            << "  3 clones: " << frac3 << "\n";

  shape_check("Fig9a: the 2nd clone helps a meaningful share of jobs (paper: >30% "
              "of jobs gain >=20%)",
              frac2, frac2 > 0.05);
  shape_check("Fig9a: the 3rd clone adds little on top of the 2nd (paper: ~5% more "
              "jobs)",
              frac3 - frac2, frac3 - frac2 < 0.15);
  const double extra_resources =
      d3.total_resource_seconds() / d2.total_resource_seconds() - 1.0;
  shape_check("Fig9b: DollyMP^3 burns more resources than DollyMP^2 (paper: +15%)",
              extra_resources, extra_resources > 0.0);
  shape_check("Ablation: smallest-first clone ordering (Sec 4.1) is not worse than "
              "naive largest-first",
              naive.mean_flowtime() / d2.mean_flowtime(),
              d2.mean_flowtime() <= naive.mean_flowtime() * 1.05);
  return shape_status();
}
