// Figure 6: flowtime CDF per application in the heavily-loaded regime.
// Paper: most DollyMP jobs finish within 6000 s of arrival, vs ~60% under
// Tetris and ~45% under the Capacity scheduler.
#include <iostream>

#include "heavy_load.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  for (const std::string app : {"pagerank", "wordcount"}) {
    std::vector<std::pair<std::string, Cdf>> series;
    Cdf dollymp_cdf;
    Cdf tetris_cdf;
    Cdf capacity_cdf;
    for (const std::string key : {"capacity", "tetris", "dollymp2"}) {
      const SimResult result = heavy_run(app, key);
      Cdf cdf = flowtime_cdf(result);
      if (key == "dollymp2") dollymp_cdf = cdf;
      if (key == "tetris") tetris_cdf = cdf;
      if (key == "capacity") capacity_cdf = cdf;
      series.emplace_back(key, std::move(cdf));
    }
    print_cdf_figure("Figure 6 (" + app + "): flowtime CDF, heavy load", series);

    // Shape: at DollyMP^2's p90 flowtime, Tetris and Capacity have
    // completed substantially smaller fractions, Capacity the least.
    const double cut = dollymp_cdf.quantile(0.9);
    const double tetris_frac = tetris_cdf.fraction_at_most(cut);
    const double capacity_frac = capacity_cdf.fraction_at_most(cut);
    shape_check("Fig6 (" + app + "): fraction of Tetris jobs within DollyMP^2 p90 "
                "flowtime < 0.9",
                tetris_frac, tetris_frac < 0.9);
    shape_check("Fig6 (" + app + "): Capacity fraction below Tetris fraction",
                capacity_frac, capacity_frac <= tetris_frac + 0.02);
  }
  return shape_status();
}
