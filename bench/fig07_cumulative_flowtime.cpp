// Figure 7: cumulative total flowtime as jobs arrive, per application, in
// the heavily-loaded regime.  Paper: DollyMP ends ~50% below the Capacity
// scheduler and ~30% below Tetris.
#include <iostream>

#include "dollymp/common/table.h"
#include "heavy_load.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  for (const std::string app : {"pagerank", "wordcount"}) {
    std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>> curves;
    double capacity_total = 0.0;
    double tetris_total = 0.0;
    double dollymp_total = 0.0;
    for (const std::string key : {"capacity", "tetris", "dollymp2"}) {
      const SimResult result = heavy_run(app, key);
      curves.emplace_back(key, cumulative_flowtime_series(result));
      if (key == "capacity") capacity_total = result.total_flowtime();
      if (key == "tetris") tetris_total = result.total_flowtime();
      if (key == "dollymp2") dollymp_total = result.total_flowtime();
    }

    std::cout << banner("Figure 7 (" + app + "): cumulative flowtime over arrivals");
    ConsoleTable table({"arrivals", "capacity", "tetris", "dollymp2"});
    const std::size_t n = curves[0].second.size();
    for (std::size_t frac = 1; frac <= 10; ++frac) {
      const std::size_t idx = std::min(n - 1, frac * n / 10);
      table.add_labeled_row(std::to_string(idx + 1),
                            {curves[0].second[idx].second, curves[1].second[idx].second,
                             curves[2].second[idx].second},
                            0);
    }
    std::cout << table.render();

    const double vs_capacity = 1.0 - dollymp_total / capacity_total;
    const double vs_tetris = 1.0 - dollymp_total / tetris_total;
    shape_check("Fig7 (" + app + "): DollyMP total flowtime well below Capacity "
                "(~50% in paper)",
                vs_capacity, vs_capacity > 0.25);
    shape_check("Fig7 (" + app + "): DollyMP total flowtime below Tetris "
                "(~30% in paper; our Tetris lacks YARN overheads, see EXPERIMENTS.md)",
                vs_tetris, vs_tetris > 0.05);
  }
  return shape_status();
}
