// Shared setup for the trace-driven simulations of Section 6.3 (Figs.
// 8-11).  The paper replays Google traces on >30K simulated servers; we
// synthesize an equivalent workload (DESIGN.md section 1) and scale the
// cluster down to keep the bench binaries fast — the load level, not the
// absolute size, is what the experiments exercise.  Slot length is the
// paper's 5 seconds.
#pragma once

#include "bench_common.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp::bench {

inline constexpr int kTraceJobs = 1000;
inline constexpr std::size_t kTraceServers = 300;

inline std::vector<JobSpec> trace_jobs(std::uint64_t seed, int count = kTraceJobs,
                                       double gap_seconds = 0.31) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 400;
  TraceModel model(config, seed);
  auto jobs = model.sample_jobs(count);
  // Calibrated to ~35% average utilization on the default 300-server
  // cluster: the Section 6.3.1 experiments state "the cluster load is not
  // high" (that is what leaves room for clones) and Google trace analyses
  // report <50% average utilization [36].  Fig. 10 sweeps the load by
  // shrinking the cluster; Fig. 11 uses a heavily-loaded sizing.
  assign_poisson_arrivals(jobs, gap_seconds, seed + 3);
  return jobs;
}

inline SimResult trace_run(const std::string& policy, std::uint64_t seed = 99,
                           std::size_t servers = kTraceServers,
                           int max_copies_per_task = 3, double gap_seconds = 0.31,
                           std::optional<DollyMPConfig> dollymp = {}) {
  const Cluster cluster = Cluster::google_like(servers);
  SimConfig config = deployment_config(seed);
  // The system-wide cap defaults to the paper's "at most three concurrent
  // copies"; the Fig. 9 DollyMP^3 ablation raises it so the third clone can
  // actually launch.
  config.max_copies_per_task = max_copies_per_task;
  return run_workload(cluster, config, trace_jobs(seed, kTraceJobs, gap_seconds), policy,
                      dollymp);
}

}  // namespace dollymp::bench
