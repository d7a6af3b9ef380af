// Figure 8: trace-driven simulation — per-job ratios of (a) job duration
// and (b) resource usage under DollyMP^2 relative to Tetris and DRF.
//
// Paper: at least 40% of jobs see >=30% flowtime reduction vs Tetris with
// an average speedup of 22%; ~70% of jobs consume about double the
// resources of DRF while the *total* resource consumption is only ~60%
// higher (clones go to small jobs); makespan drops ~18%.
#include <iostream>

#include "trace_sim.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const SimResult dollymp = trace_run("dollymp2");
  const SimResult tetris = trace_run("tetris");
  const SimResult drf = trace_run("drf");

  const PairedRatios vs_tetris = paired_ratios(dollymp, tetris);
  const PairedRatios vs_drf = paired_ratios(dollymp, drf);

  print_cdf_figure("Figure 8a: per-job flowtime ratio, DollyMP^2 / Tetris",
                   {{"flow_ratio", vs_tetris.flowtime_ratio}});
  print_cdf_figure("Figure 8b: per-job resource-usage ratio, DollyMP^2 / DRF",
                   {{"resource_ratio", vs_drf.resource_ratio}});

  const double frac30 = vs_tetris.fraction_flowtime_reduced_by(0.30);
  shape_check("Fig8a: a large fraction of jobs gain >=30% flowtime vs Tetris "
              "(paper: >=40%)",
              frac30, frac30 > 0.2);

  const double mean_speedup = mean_flowtime_reduction(dollymp, tetris);
  shape_check("Fig8a: average flowtime reduction vs Tetris (paper: ~22%)", mean_speedup,
              mean_speedup > 0.05);

  const double doubled = 1.0 - vs_drf.resource_ratio.fraction_at_most(1.5);
  shape_check("Fig8b: a sizeable fraction of jobs consume ~2x resources vs DRF "
              "(paper: ~70% of jobs)",
              doubled, doubled > 0.2);

  // The paper's point: most jobs individually double their usage yet the
  // *total* overhead is much smaller (+60%) because cloning concentrates on
  // small jobs.  The reproduction check compares the aggregate overhead to
  // the typical per-job overhead.
  const double total_overhead =
      dollymp.total_resource_seconds() / drf.total_resource_seconds() - 1.0;
  const double median_job_overhead = vs_drf.resource_ratio.median() - 1.0;
  shape_check("Fig8b: total resource overhead below the typical per-job overhead "
              "(clones target small jobs; paper: +60% total vs ~2x per job)",
              total_overhead, total_overhead < median_job_overhead);

  const double makespan_cut = 1.0 - dollymp.makespan_seconds / tetris.makespan_seconds;
  shape_check("Fig8: makespan reduced vs Tetris (paper: ~18%)", makespan_cut,
              makespan_cut > -0.05);
  return shape_status();
}
