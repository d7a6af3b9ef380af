// Quickstart: the smallest end-to-end use of the library.
//
//   1. describe a cluster,
//   2. describe a few jobs (task counts, demands, duration statistics),
//   3. pick a scheduler,
//   4. simulate and read the per-job results.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "dollymp/cluster/cluster.h"
#include "dollymp/metrics/report.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"

int main() {
  using namespace dollymp;

  // A small heterogeneous cluster: 4 big nodes and 8 small ones.
  Cluster cluster;
  for (int i = 0; i < 4; ++i) {
    cluster.add_server(ServerSpec{{16, 32}, 1.3, 0});
  }
  for (int i = 0; i < 8; ++i) {
    cluster.add_server(ServerSpec{{8, 16}, 1.0, 1});
  }

  // Three jobs.  Job 0: a 20-task single-phase job with straggler-prone
  // durations (sigma close to theta).  Job 1: a small map->reduce job.
  // Job 2: a single fat task arriving a minute in.
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec::single_phase(/*id=*/0, /*tasks=*/20, /*demand=*/{2, 4},
                                       /*theta=*/60.0, /*sigma=*/50.0));
  JobSpec mapreduce;
  mapreduce.id = 1;
  mapreduce.name = "mapreduce-demo";
  mapreduce.app = "demo";
  mapreduce.phases.push_back({"map", 8, {1, 2}, 45.0, 30.0, {}});
  mapreduce.phases.push_back({"reduce", 2, {2, 6}, 60.0, 20.0, {0}});
  jobs.push_back(mapreduce);
  jobs.push_back(JobSpec::single_task(/*id=*/2, /*demand=*/{8, 16}, /*theta=*/120.0,
                                      /*sigma=*/0.0, /*arrival=*/60.0));

  // DollyMP with the paper's defaults: up to two clones per task,
  // sigma factor r = 1.5.
  DollyMPScheduler scheduler;

  SimConfig config;
  config.slot_seconds = 5.0;  // the paper's slot length
  config.seed = 42;           // everything is reproducible from this

  const SimResult result = simulate(cluster, config, jobs, scheduler);

  std::cout << "scheduler: " << result.scheduler << "\n\n";
  for (const auto& job : result.jobs) {
    std::cout << job.name << ": arrived " << job.arrival_seconds << "s, started "
              << job.first_start_seconds << "s, finished " << job.finish_seconds
              << "s  (flowtime " << job.flowtime() << "s, " << job.clones_launched
              << " clones)\n";
  }
  std::cout << "\ntotal flowtime: " << result.total_flowtime() << " s\n"
            << "makespan:       " << result.makespan_seconds << " s\n"
            << "tasks cloned:   " << result.cloned_task_fraction() * 100.0 << " %\n";
  return 0;
}
