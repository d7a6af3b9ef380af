// Section 4 analysis tables.
//
// (1) The Section 4.1 worked example: flow1/flow2/flow3 across Pareto
//     shapes and job counts — flow3 < flow1 < flow2 whenever the paper's
//     conditions hold, i.e. a couple of clones targeted at small jobs beat
//     both conservative and aggressive cloning.
// (2) Theorem 1: empirical competitive ratio of Algorithm 1 (DollyMP^0,
//     single server, batch single-task jobs, deterministic durations,
//     R = 1) against the best permutation schedule — always <= 6.
// (3) The sigma-factor r ablation from DESIGN.md: sweep r in the effective
//     length e = theta + r*sigma on a straggler-heavy workload.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "bench_common.h"
#include "dollymp/common/distributions.h"
#include "dollymp/common/rng.h"
#include "dollymp/common/table.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

double flow1(int n, const SpeedupFunction& h) { return n - 1.0 + 1.0 / h(2.0); }

double flow2(int n, const SpeedupFunction& h) {
  double total = 0.0;
  for (int j = 1; j <= n; ++j) total += j / h(std::ldexp(1.0, j));
  return total;
}

double flow3(int n, const SpeedupFunction& h) { return (n + 1.0) / h(2.0); }

bool section41_table() {
  std::cout << banner("Section 4.1: expected flowtime of the three cloning schemes");
  ConsoleTable table({"alpha", "N", "flow1_clone_last", "flow2_aggressive",
                      "flow3_two_clones_smallest_first", "ordering"});
  bool all_hold = true;
  for (const double alpha : {1.5, 2.0, 2.5, 3.0}) {
    const SpeedupFunction h(alpha);
    const int n = std::max(8, static_cast<int>(std::ceil(2.0 * alpha)) + 2);
    const double f1 = flow1(n, h);
    const double f2 = flow2(n, h);
    const double f3 = flow3(n, h);
    const bool holds = f3 < f1 && f1 < f2;
    all_hold = all_hold && holds;
    table.add_row({ConsoleTable::format_double(alpha, 1), std::to_string(n),
                   ConsoleTable::format_double(f1, 2), ConsoleTable::format_double(f2, 2),
                   ConsoleTable::format_double(f3, 2),
                   holds ? "flow3 < flow1 < flow2" : "VIOLATED"});
  }
  std::cout << table.render();
  return all_hold;
}

double permutation_best_flowtime(const std::vector<Resources>& demands,
                                 const std::vector<SimTime>& durations) {
  const int n = static_cast<int>(demands.size());
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    SimTime horizon = 0;
    for (const auto d : durations) horizon += d;
    std::vector<Resources> used(static_cast<std::size_t>(horizon) + 1);
    double total = 0.0;
    for (const int j : perm) {
      SimTime start = 0;
      for (;;) {
        bool fits = true;
        for (SimTime t = start; t < start + durations[j]; ++t) {
          if (!(used[static_cast<std::size_t>(t)] + demands[j]).fits_within({1, 1})) {
            fits = false;
            break;
          }
        }
        if (fits) break;
        ++start;
      }
      for (SimTime t = start; t < start + durations[j]; ++t) {
        used[static_cast<std::size_t>(t)] += demands[j];
      }
      total += static_cast<double>(start + durations[j]);
    }
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

void theorem1_table() {
  std::cout << banner("Theorem 1: empirical competitive ratio of Algorithm 1 (bound: 6R, R=1)");
  ConsoleTable table({"trial_group", "instances", "worst_ratio", "mean_ratio", "bound_ok"});
  Rng rng(123);
  const double grid[] = {0.25, 0.5, 1.0};
  for (int group = 0; group < 4; ++group) {
    double worst = 0.0;
    double sum = 0.0;
    const int trials = 25;
    for (int trial = 0; trial < trials; ++trial) {
      const int n = static_cast<int>(rng.range(3, 6));
      std::vector<Resources> demands;
      std::vector<SimTime> durations;
      std::vector<JobSpec> jobs;
      for (int j = 0; j < n; ++j) {
        const Resources d{grid[rng.below(3)], grid[rng.below(3)]};
        const auto t = static_cast<SimTime>(rng.range(1, 4));
        demands.push_back(d);
        durations.push_back(t);
        jobs.push_back(JobSpec::single_task(j, d, static_cast<double>(t), 0.0));
      }
      const double opt = permutation_best_flowtime(demands, durations);

      SimConfig config;
      config.slot_seconds = 1.0;
      config.seed = 1;
      config.model = ExecutionModel::kWorkBased;
      config.background.enabled = false;
      config.locality.enabled = false;
      DollyMPScheduler d0{DollyMPConfig{0}};
      const SimResult result = simulate(Cluster::single({1, 1}), config, jobs, d0);
      const double ratio = result.total_flowtime() / opt;
      worst = std::max(worst, ratio);
      sum += ratio;
    }
    table.add_labeled_row("group" + std::to_string(group),
                          {static_cast<double>(trials), worst, sum / trials,
                           worst <= 6.0 ? 1.0 : 0.0},
                          2);
  }
  std::cout << table.render();
}

void sigma_factor_ablation() {
  std::cout << banner("Ablation: sigma factor r in e = theta + r*sigma (default 1.5)");
  TraceModelConfig tm;
  tm.max_tasks_per_phase = 60;
  TraceModel model(tm, 55);
  auto jobs = model.sample_jobs(150);
  assign_poisson_arrivals(jobs, 10.0, 56);
  const Cluster cluster = Cluster::google_like(60);

  ConsoleTable table({"r", "total_flowtime_s", "mean_flowtime_s"});
  for (const double r : {0.0, 0.5, 1.0, 1.5, 2.0, 3.0}) {
    DollyMPConfig dc;
    dc.sigma_factor = r;
    DollyMPScheduler scheduler(dc);
    const SimResult result = simulate(cluster, deployment_config(55), jobs, scheduler);
    table.add_labeled_row(ConsoleTable::format_double(r, 1),
                          {result.total_flowtime(), result.mean_flowtime()}, 0);
  }
  std::cout << table.render();
}

}  // namespace

int main() {
  const bool ordering_holds = section41_table();
  theorem1_table();
  sigma_factor_ablation();
  shape_check("Sec 4.1: flow3 < flow1 < flow2 across all tabulated shapes",
              ordering_holds ? 1.0 : 0.0, ordering_holds);
  return shape_status();
}
