// Extension bench (the paper's Section 8 future work): online learning of
// straggler-prone servers.
//
// "As future works, we plan to apply online learning methods to quickly
// identify those servers that can easily lead to stragglers."  We
// implement that as a per-server EWMA slowdown estimator
// (learn/server_scorer.h) that DollyMP can consult when placing copies and
// clones.  This bench compares DollyMP^2 with and without the learned
// placement on the 30-node cluster under strong, persistent background
// contention (the regime where a few machines are temporarily "bad"), plus
// the Corollary 4.1 clone-budget variant.
#include <iostream>

#include "bench_common.h"
#include "dollymp/common/table.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/workload/arrivals.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

SimConfig contended_config(std::uint64_t seed) {
  SimConfig config = deployment_config(seed);
  // Strong, slowly-changing contention: some machines are 'bad' for long
  // stretches — exactly what the learner can exploit.
  config.background.contention_probability = 0.35;
  config.background.mean_interval_seconds = 600.0;
  config.background.max_slowdown = 8.0;
  return config;
}

}  // namespace

int main() {
  const Cluster cluster = Cluster::paper30();
  const int kSeeds = 8;

  double blind_total = 0.0;
  double aware_total = 0.0;
  double corollary_total = 0.0;

  ConsoleTable table({"variant", "mean_flow_s", "p95_flow_s", "clones"});
  for (const auto& [label, aware, corollary] :
       {std::tuple<const char*, bool, bool>{"dollymp^2 (blind)", false, false},
        {"dollymp^2 + learned placement", true, false},
        {"dollymp^2 + corollary-4.1 budgets", false, true}}) {
    RunningStats mean_flow;
    RunningStats p95_flow;
    long long clones = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      auto jobs = paper_app_mix(60, 11);
      assign_jittered_arrivals(jobs, 40.0, 0.25, 11);
      DollyMPConfig dc;
      dc.straggler_aware = aware;
      dc.corollary_clone_counts = corollary;
      DollyMPScheduler scheduler(dc);
      const SimResult result =
          simulate(cluster, contended_config(static_cast<std::uint64_t>(seed)), jobs,
                   scheduler);
      mean_flow.add(result.mean_flowtime());
      p95_flow.add(flowtime_cdf(result).quantile(0.95));
      for (const auto& j : result.jobs) clones += j.clones_launched;
    }
    table.add_labeled_row(label,
                          {mean_flow.mean(), p95_flow.mean(),
                           static_cast<double>(clones) / kSeeds},
                          1);
    if (std::string(label).find("blind") != std::string::npos) {
      blind_total = mean_flow.mean();
    } else if (std::string(label).find("learned") != std::string::npos) {
      aware_total = mean_flow.mean();
    } else {
      corollary_total = mean_flow.mean();
    }
  }
  std::cout << banner("Extension: straggler-aware placement & Corollary 4.1 budgets");
  std::cout << table.render() << "\n";

  shape_check("Sec 8 extension: learned placement reduces mean flowtime under "
              "persistent contention",
              1.0 - aware_total / blind_total, aware_total < blind_total);
  shape_check("Corollary 4.1 budgets do not degrade mean flowtime",
              1.0 - corollary_total / blind_total,
              corollary_total < blind_total * 1.05);
  return shape_status();
}
