// Shared helpers for tests that compare runs through their flight-recorder
// streams.
//
// Runs that make the same scheduler calls must produce the same stream
// record for record, so they compare whole streams with compare_streams.
// A run wrapped in an every-slot polling adapter adds invocation, timer and
// placement-query records of its own; such pairs compare only the
// simulation events (kinds kJobArrival..kServerRepaired) with `seq` dropped,
// since the extra records shift every stream position.
#pragma once

#include <vector>

#include "dollymp/obs/recorder.h"
#include "dollymp/sim/simulator.h"

namespace dollymp::test_support {

struct RecordedRun {
  SimResult result;
  std::vector<TraceRecord> stream;
};

/// simulate() under a fresh unbounded recorder (replacing any recorder in
/// `config`).
inline RecordedRun simulate_recorded(const Cluster& cluster, SimConfig config,
                                     const std::vector<JobSpec>& jobs,
                                     Scheduler& scheduler) {
  Recorder recorder;
  config.recorder = &recorder;
  RecordedRun run;
  run.result = simulate(cluster, config, jobs, scheduler);
  run.stream = recorder.snapshot();
  return run;
}

/// The simulation-event records of `stream` (arrivals, placements, copy
/// ends, task/phase/job completions, crashes and repairs) with `seq` zeroed.
inline std::vector<TraceRecord> simulation_events(
    const std::vector<TraceRecord>& stream) {
  std::vector<TraceRecord> out;
  for (TraceRecord r : stream) {
    if (r.type > TraceEv::kServerRepaired) continue;
    r.seq = 0;
    out.push_back(r);
  }
  return out;
}

/// Number of records of kind `type` in `stream`.
inline long long count_kind(const std::vector<TraceRecord>& stream, TraceEv type) {
  long long n = 0;
  for (const TraceRecord& r : stream) n += r.type == type ? 1 : 0;
  return n;
}

}  // namespace dollymp::test_support
