// Ablation: the delay-assignment clone-kill policy (Section 5).
//
// When a task's first copy finishes, the paper's AM keeps the remaining
// copy with the best data locality (for intermediate-data transfer) and
// kills the rest; the simulator's kKeepBestLocality models that, while
// kKillImmediately releases everything at once.  This table quantifies the
// trade: the kept copies cost resources but preserve locality for the
// downstream phase (modelled as the remote-read penalty its tasks avoid).
#include <iostream>

#include "bench_common.h"
#include "dollymp/common/table.h"
#include "dollymp/workload/arrivals.h"

using namespace dollymp;
using namespace dollymp::bench;

int main() {
  const Cluster cluster = Cluster::paper30();
  auto jobs = paper_app_mix(80, 21);
  assign_jittered_arrivals(jobs, 60.0, 0.25, 22);

  std::cout << banner("Ablation: clone kill policy (delay assignment, Section 5)");
  ConsoleTable table({"kill_policy", "total_flow_s", "mean_flow_s", "resource_s"});

  double kill_flow = 0.0;
  double keep_flow = 0.0;
  double kill_res = 0.0;
  double keep_res = 0.0;
  for (const auto policy :
       {CloneKillPolicy::kKillImmediately, CloneKillPolicy::kKeepBestLocality}) {
    SimConfig config = deployment_config(21);
    config.kill_policy = policy;
    const SimResult result = run_workload(cluster, config, jobs, "dollymp2");
    table.add_labeled_row(to_string(policy),
                          {result.total_flowtime(), result.mean_flowtime(),
                           result.total_resource_seconds()},
                          0);
    if (policy == CloneKillPolicy::kKillImmediately) {
      kill_flow = result.total_flowtime();
      kill_res = result.total_resource_seconds();
    } else {
      keep_flow = result.total_flowtime();
      keep_res = result.total_resource_seconds();
    }
  }
  std::cout << table.render() << "\n";

  shape_check("Delay assignment: keeping the best-locality copy costs extra resources",
              keep_res / kill_res - 1.0, keep_res >= kill_res);
  shape_check("Delay assignment: flowtime impact is small at moderate load "
              "(the kept copies ride leftover capacity)",
              keep_flow / kill_flow, keep_flow < kill_flow * 1.15);
  return shape_status();
}
