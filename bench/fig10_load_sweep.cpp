// Figure 10: the effect of cloning under different cluster loads.  The
// workload is fixed while the number of servers (hence cores) shrinks —
// the paper varies the CPU count so the highest load is ~10x the lowest.
//
// Paper: even at high load, cloning (DollyMP^2 vs DollyMP^0) trims ~10% of
// total flowtime while consuming only ~2% extra resources, because the
// scheduler only clones small jobs when there is genuinely spare room;
// ~40% of tasks still get cloned copies under high load.
#include <iostream>

#include "dollymp/common/table.h"
#include "trace_sim.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  std::cout << banner("Figure 10: cloning vs cluster load (DollyMP^2 vs DollyMP^0)");
  ConsoleTable table({"servers", "flow_reduction", "extra_resources", "cloned_task_frac",
                      "jobs_gaining_20pct"});

  double high_load_reduction = 0.0;
  double high_load_extra = 0.0;
  double high_load_cloned = 0.0;
  double low_load_cloned = 0.0;

  const std::size_t sizes[] = {900, 300, 150, 90};  // ~10x load span, ~12% to ~110%
  for (const std::size_t servers : sizes) {
    const SimResult with = trace_run("dollymp2", 99, servers);
    const SimResult without = trace_run("dollymp0", 99, servers);
    const double reduction = 1.0 - with.total_flowtime() / without.total_flowtime();
    const double extra =
        with.total_resource_seconds() / without.total_resource_seconds() - 1.0;
    const PairedRatios ratios = paired_ratios(with, without);
    const double gain20 = ratios.fraction_flowtime_reduced_by(0.20);
    table.add_labeled_row(std::to_string(servers),
                          {reduction, extra, with.cloned_task_fraction(), gain20}, 3);
    if (servers == sizes[3]) {
      high_load_reduction = reduction;
      high_load_extra = extra;
      high_load_cloned = with.cloned_task_fraction();
    }
    if (servers == sizes[0]) low_load_cloned = with.cloned_task_fraction();
  }
  std::cout << table.render() << "\n";

  shape_check("Fig10a: cloning still reduces flowtime at 10x load (paper: ~10%)",
              high_load_reduction, high_load_reduction > 0.0);
  shape_check("Fig10a: extra resource consumption stays small at high load "
              "(paper: ~2%)",
              high_load_extra, high_load_extra < 0.30);
  shape_check("Fig10b: a large fraction of tasks still get clones at high load "
              "(paper: ~40%)",
              high_load_cloned, high_load_cloned > 0.05);
  shape_check("Fig10b: more cloning when the cluster is larger (lower load)",
              low_load_cloned - high_load_cloned, low_load_cloned >= high_load_cloned);
  return shape_status();
}
