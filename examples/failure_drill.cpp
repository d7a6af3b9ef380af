// Failure drill: how does the cluster behave when machines crash mid-run?
//
// Enables the failure-injection model (servers crash at exponential MTBF,
// killing their running copies, and come back after repair) and replays
// the same workload at increasing failure rates under DollyMP, printing
// the flowtime and re-execution cost at each level — plus an excerpt of
// the flight recorder's stream showing a crash and the resulting
// re-placements.
//
// Build & run:  ./build/examples/failure_drill
#include <iostream>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/table.h"
#include "dollymp/metrics/report.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"

int main() {
  using namespace dollymp;

  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_wordcount(i, 2.0));
  }
  assign_jittered_arrivals(jobs, 30.0, 0.2, /*seed=*/4);

  ConsoleTable table({"mtbf_s", "mean_flow_s", "makespan_s", "copies_launched",
                      "failure_events"});
  for (const double mtbf : {0.0, 1800.0, 600.0, 200.0}) {
    SimConfig config;
    config.slot_seconds = 5.0;
    config.seed = 4;
    Recorder recorder;
    config.recorder = &recorder;
    if (mtbf > 0.0) {
      config.failures.enabled = true;
      config.failures.mean_time_to_failure_seconds = mtbf;
      config.failures.mean_repair_seconds = 120.0;
    }
    DollyMPScheduler scheduler;
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    const std::vector<TraceRecord> stream = recorder.snapshot();
    long long failures = 0;
    for (const TraceRecord& r : stream) {
      failures += r.type == TraceEv::kServerFailed ? 1 : 0;
    }
    table.add_labeled_row(mtbf == 0.0 ? "off" : ConsoleTable::format_double(mtbf, 0),
                          {result.mean_flowtime(), result.makespan_seconds,
                           static_cast<double>(result.total_copies_launched),
                           static_cast<double>(failures)},
                          1);

    // For the harshest level, show the first crash in the recorded stream:
    // simulation events only (kinds up to kServerRepaired), skipping the
    // scheduler-decision records interleaved with them.
    if (mtbf == 200.0) {
      std::cout << "\nfirst crash in the flight recorder (mtbf=200s):\n";
      bool crashed = false;
      int shown = 0;
      for (const TraceRecord& r : stream) {
        if (r.type > TraceEv::kServerRepaired) continue;
        if (r.type == TraceEv::kServerFailed) crashed = true;
        if (!crashed) continue;
        std::cout << "  " << decode(r) << "\n";
        if (++shown >= 10) break;
      }
      std::cout << "\n";
    }
  }
  std::cout << table.render()
            << "\nReading: tighter MTBF means more re-executed copies and longer "
               "flowtimes,\nbut every job still completes — tasks that lose all "
               "copies are re-placed.\n";
  return 0;
}
