// SimCore checkpoint/restore continuity for batch runs.
//
// A core restored from save_state must continue exactly like the
// uninterrupted run: same events, same decisions, same flight-recorder
// hash at the end.  The placement index is derived state — load_state
// rebuilds it from the restored cluster — so everything a policy mirrors
// into it (DollyMP's straggler-aware score multipliers) must reach the
// rebuilt index before the next placement.  The service-mode suites cannot
// see this: no named service policy is straggler-aware.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/common/experiment.h"
#include "dollymp/common/state_io.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"
#include "placement_oracle.h"
#include "recorded_run.h"

namespace dollymp {
namespace {

std::vector<JobSpec> trace_jobs() {
  TraceModelConfig mix;
  mix.max_tasks_per_phase = 50;
  TraceModel model(mix, 11);
  std::vector<JobSpec> jobs = model.sample_jobs(150);
  assign_poisson_arrivals(jobs, 10.0, 7);
  return jobs;
}

SimConfig restore_config(const std::string& fault_preset) {
  SimConfig config;
  config.seed = 7;
  config.background.enabled = false;
  const SweepFaultPreset preset = make_fault_preset(fault_preset);
  config.failures = preset.failures;
  config.faults = preset.faults;
  return config;
}

std::unique_ptr<DollyMPScheduler> straggler_aware_policy() {
  DollyMPConfig config;
  config.clone_budget = 2;
  config.straggler_aware = true;
  return std::make_unique<DollyMPScheduler>(config);
}

/// Run to the median arrival, snapshot, then finish both the original core
/// and a core restored from the snapshot; their recorder hashes must agree.
void expect_restore_continues_identically(const std::string& fault_preset) {
  const Cluster cluster = Cluster::google_trace(3000);
  const std::vector<JobSpec> jobs = trace_jobs();
  SimConfig config = restore_config(fault_preset);

  std::vector<double> arrivals;
  for (const JobSpec& j : jobs) arrivals.push_back(j.arrival_seconds);
  const auto mid = arrivals.begin() + static_cast<std::ptrdiff_t>(arrivals.size() / 2);
  std::nth_element(arrivals.begin(), mid, arrivals.end());
  const auto mid_slot = static_cast<SimTime>(*mid / config.slot_seconds);

  Recorder original_rec;
  config.recorder = &original_rec;
  SimCore original(cluster, config);
  original.ingest(jobs);
  const auto original_policy = straggler_aware_policy();
  original.begin(*original_policy);
  ASSERT_EQ(original.step_until(mid_slot), StepOutcome::kHorizonReached);
  StateWriter writer;
  original.save_state(writer);
  const std::vector<std::uint8_t> snapshot = writer.finish();
  (void)original.step_until(SimCore::kUnbounded);
  const SimResult uninterrupted = original.finish();

  Recorder restored_rec;
  config.recorder = &restored_rec;
  SimCore restored(cluster, config);
  const auto restored_policy = straggler_aware_policy();
  restored.begin(*restored_policy);
  StateReader reader(snapshot);
  restored.load_state(reader, /*load_scheduler=*/true);
  (void)restored.step_until(SimCore::kUnbounded);
  const SimResult resumed = restored.finish();

  ASSERT_NE(original_policy->scorer(), nullptr) << "scorer never learned anything";
  EXPECT_EQ(restored_rec.records_written(), original_rec.records_written())
      << fault_preset;
  EXPECT_EQ(restored_rec.hash(), original_rec.hash()) << fault_preset;
  EXPECT_EQ(resumed.stats.placements_accepted, uninterrupted.stats.placements_accepted)
      << fault_preset;
}

TEST(SimCoreRestore, StragglerAwareDollyMPContinuesIdenticallyHealthy) {
  expect_restore_continues_identically("healthy");
}

TEST(SimCoreRestore, StragglerAwareDollyMPContinuesIdenticallyUnderCrashes) {
  expect_restore_continues_identically("crash");
}

// A snapshot taken while one server is up and quarantined and another is
// down and quarantined: load_state's one index rebuild must leave both out
// of every query (candidacy is up and not quarantined), and the restored
// core — whose resilience policy later repairs and releases them — must
// continue exactly like the uninterrupted run.
TEST(SimCoreRestore, QuarantinedServersUpAndDownStayOutAcrossRestore) {
  const Cluster cluster = Cluster::google_like(30);
  TraceModelConfig mix;
  mix.max_tasks_per_phase = 30;
  TraceModel model(mix, 5);
  std::vector<JobSpec> jobs = model.sample_jobs(40);
  assign_poisson_arrivals(jobs, 10.0, 5);

  SimConfig config;
  config.seed = 3;
  config.background.enabled = false;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 600.0;
  config.failures.mean_repair_seconds = 300.0;
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 20.0;
  DollyMPConfig policy_config;
  policy_config.straggler_aware = true;
  policy_config.resilience.enabled = true;
  policy_config.resilience.flap_threshold = 2.0;
  policy_config.resilience.quarantine_slots = 60;
  policy_config.resilience.max_quarantined_fraction = 0.3;

  Recorder original_rec;
  config.recorder = &original_rec;
  SimCore original(cluster, config);
  original.ingest(jobs);
  DollyMPScheduler original_policy(policy_config);
  original.begin(original_policy);
  const auto quarantined_states = [&original] {
    bool up = false;
    bool down = false;
    for (const Server& server : original.cluster().servers()) {
      if (!server.is_quarantined()) continue;
      (server.is_down() ? down : up) = true;
    }
    return up && down;
  };
  SimTime slot = 0;
  while (!quarantined_states()) {
    ASSERT_EQ(original.step_until(++slot), StepOutcome::kHorizonReached)
        << "run ended before a server was quarantined both up and down";
  }
  ASSERT_GT(test_support::count_kind(original_rec.snapshot(), TraceEv::kQuarantineEnter), 1);
  StateWriter writer;
  original.save_state(writer);
  const std::vector<std::uint8_t> snapshot = writer.finish();
  (void)original.step_until(SimCore::kUnbounded);
  const SimResult uninterrupted = original.finish();

  Recorder restored_rec;
  config.recorder = &restored_rec;
  SimCore restored(cluster, config);
  DollyMPScheduler restored_policy(policy_config);
  restored.begin(restored_policy);
  StateReader reader(snapshot);
  restored.load_state(reader, /*load_scheduler=*/true);
  for (const Resources& demand : test_support::workload_demands(jobs)) {
    EXPECT_EQ(restored.placement_index()->fitting_candidates(demand),
              test_support::brute_force_candidates(restored.cluster(), demand));
    EXPECT_EQ(restored.placement_index()->best_fit(demand),
              best_fit_server(restored.cluster(), demand));
  }
  (void)restored.step_until(SimCore::kUnbounded);
  const SimResult resumed = restored.finish();

  EXPECT_GT(uninterrupted.stats.quarantine_exits, 0);
  EXPECT_EQ(restored_rec.records_written(), original_rec.records_written());
  EXPECT_EQ(restored_rec.hash(), original_rec.hash());
  EXPECT_EQ(resumed.stats.placements_accepted, uninterrupted.stats.placements_accepted);
}

}  // namespace
}  // namespace dollymp
