// Figure 5: running-time CDF per application in the heavily-loaded regime
// (500 jobs, ~20 s inter-arrival).  Paper: under DollyMP all jobs complete
// within ~200 s once scheduled, while only ~80% do under Tetris — because
// once DollyMP schedules a job, most of its tasks run simultaneously, so
// running time looks like the lightly-loaded regime.
#include <iostream>

#include "heavy_load.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  for (const std::string app : {"pagerank", "wordcount"}) {
    std::vector<std::pair<std::string, Cdf>> series;
    Cdf dollymp_cdf;
    Cdf tetris_cdf;
    for (const std::string key : {"capacity", "tetris", "dollymp2"}) {
      const SimResult result = heavy_run(app, key);
      Cdf cdf = running_time_cdf(result);
      if (key == "dollymp2") dollymp_cdf = cdf;
      if (key == "tetris") tetris_cdf = cdf;
      series.emplace_back(key, std::move(cdf));
    }
    print_cdf_figure("Figure 5 (" + app + "): running-time CDF, heavy load", series);

    // Shape: at DollyMP's p95 running time, Tetris has completed fewer
    // jobs (the paper quotes 100% vs 80% at 200 s; p95 avoids single-job
    // tail noise).
    const double cut = dollymp_cdf.quantile(0.95);
    const double tetris_frac = tetris_cdf.fraction_at_most(cut);
    shape_check("Fig5 (" + app + "): Tetris completes fewer jobs within DollyMP^2's "
                "p95 running time",
                tetris_frac, tetris_frac < 0.945);
    shape_check("Fig5 (" + app + "): DollyMP^2 median running time below Tetris's",
                dollymp_cdf.median() / tetris_cdf.median(),
                dollymp_cdf.median() <= tetris_cdf.median());
  }
  return shape_status();
}
