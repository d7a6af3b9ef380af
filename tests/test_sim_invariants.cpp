// Property-style invariant sweeps: every scheduler, several seeds and both
// execution models must preserve the simulator's global invariants.
#include <gtest/gtest.h>

#include <memory>

#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/policies.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

/// A registry policy by name; "dollymp2-aware" is DollyMP^2 with learned
/// straggler-aware scoring.
std::unique_ptr<Scheduler> named_policy(const std::string& kind) {
  if (kind == "dollymp2-aware") {
    DollyMPConfig config;
    config.straggler_aware = true;
    return make_named_policy("dollymp2", config);
  }
  return make_named_policy(kind);
}

std::vector<JobSpec> mixed_workload(std::uint64_t seed) {
  TraceModelConfig tm;
  tm.small_tasks_median = 4.0;
  tm.large_tasks_median = 20.0;
  tm.max_tasks_per_phase = 60;
  tm.cpu_max = 6.0;
  tm.mem_max = 12.0;
  TraceModel model(tm, seed);
  auto jobs = model.sample_jobs(25);
  jobs.push_back(make_wordcount(100, 2.0));
  jobs.push_back(make_pagerank(101, 1.0, 2));
  assign_jittered_arrivals(jobs, 30.0, 0.3, seed + 1);
  return jobs;
}

struct Case {
  std::string scheduler;
  std::uint64_t seed;
};

class SchedulerInvariantSweep : public testing::TestWithParam<Case> {};

TEST_P(SchedulerInvariantSweep, CompletesAllJobsWithInvariantsIntact) {
  const auto& [kind, seed] = GetParam();
  const Cluster cluster = Cluster::paper30();
  const auto jobs = mixed_workload(seed);

  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.record_utilization = true;
  config.record_tasks = true;

  auto scheduler = named_policy(kind);
  const SimResult result = simulate(cluster, config, jobs, *scheduler);

  // Every job completes exactly once.
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (const auto& j : result.jobs) {
    ASSERT_GE(j.first_start_seconds, j.arrival_seconds) << kind;
    ASSERT_GT(j.finish_seconds, j.arrival_seconds) << kind;
    ASSERT_GE(j.flowtime(), j.running_time()) << kind;
    ASSERT_GE(j.resource_seconds, 0.0) << kind;
    ASSERT_GE(j.clones_launched, 0) << kind;
  }

  // Capacity constraint (Eq. 5) held at every sampled instant.
  ASSERT_FALSE(result.utilization.empty());
  for (const auto& u : result.utilization) {
    ASSERT_LE(u.cpu, 1.0 + 1e-9) << kind;
    ASSERT_LE(u.mem, 1.0 + 1e-9) << kind;
  }

  // Hard per-task copy cap respected.
  for (const auto& t : result.tasks) {
    ASSERT_LE(t.copies, config.max_copies_per_task) << kind;
    ASSERT_GE(t.copies, 1) << kind;
  }

  // Makespan is the last finish.
  double last = 0.0;
  for (const auto& j : result.jobs) last = std::max(last, j.finish_seconds);
  ASSERT_DOUBLE_EQ(result.makespan_seconds, last);
}

TEST_P(SchedulerInvariantSweep, DeterministicAcrossRuns) {
  const auto& [kind, seed] = GetParam();
  const Cluster cluster = Cluster::paper30();
  const auto jobs = mixed_workload(seed);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;

  auto s1 = named_policy(kind);
  auto s2 = named_policy(kind);
  const SimResult a = simulate(cluster, config, jobs, *s1);
  const SimResult b = simulate(cluster, config, jobs, *s2);
  ASSERT_DOUBLE_EQ(a.total_flowtime(), b.total_flowtime()) << kind;
  ASSERT_DOUBLE_EQ(a.total_resource_seconds(), b.total_resource_seconds()) << kind;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  std::string name = info.param.scheduler + "_seed" + std::to_string(info.param.seed);
  for (auto& c : name) {
    if (c == '-') c = '_';  // gtest param names must be alphanumeric
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerInvariantSweep,
    testing::Values(Case{"capacity", 1}, Case{"capacity", 2}, Case{"drf", 1},
                    Case{"drf", 2}, Case{"tetris", 1}, Case{"tetris", 2},
                    Case{"carbyne", 1}, Case{"carbyne", 2}, Case{"srpt", 1},
                    Case{"svf", 1}, Case{"dollymp0", 1}, Case{"dollymp0", 2},
                    Case{"dollymp2", 1}, Case{"dollymp2", 2}, Case{"dollymp2", 3},
                    Case{"dollymp2-aware", 1}, Case{"hopper", 1}, Case{"hopper", 2}),
    case_name);

// Failure churn: the same invariants must survive machine crashes for a
// representative policy subset.
class FailureInvariantSweep : public testing::TestWithParam<Case> {};

TEST_P(FailureInvariantSweep, InvariantsSurviveCrashes) {
  const auto& [kind, seed] = GetParam();
  const Cluster cluster = Cluster::paper30();
  const auto jobs = mixed_workload(seed);

  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.record_utilization = true;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 900.0;
  config.failures.mean_repair_seconds = 150.0;

  auto scheduler = named_policy(kind);
  const SimResult result = simulate(cluster, config, jobs, *scheduler);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (const auto& u : result.utilization) {
    ASSERT_LE(u.cpu, 1.0 + 1e-9) << kind;
    ASSERT_LE(u.mem, 1.0 + 1e-9) << kind;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashChurn, FailureInvariantSweep,
                         testing::Values(Case{"capacity", 4}, Case{"tetris", 4},
                                         Case{"dollymp2", 4}, Case{"drf", 4},
                                         Case{"carbyne", 4}, Case{"hopper", 4}),
                         case_name);

// Clone budgets: DollyMP^r never launches more than r clones per task.
class CloneBudgetSweep : public testing::TestWithParam<int> {};

TEST_P(CloneBudgetSweep, BudgetRespected) {
  const int budget = GetParam();
  const Cluster cluster = Cluster::paper30();
  auto jobs = mixed_workload(11);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 11;
  config.max_copies_per_task = 4;  // cap above any tested budget
  config.record_tasks = true;

  DollyMPScheduler scheduler{DollyMPConfig{budget}};
  const SimResult result = simulate(cluster, config, jobs, scheduler);
  for (const auto& t : result.tasks) {
    ASSERT_LE(t.copies, 1 + budget);
  }
  if (budget == 0) {
    for (const auto& j : result.jobs) {
      ASSERT_EQ(j.clones_launched, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CloneBudgetSweep, testing::Values(0, 1, 2, 3));

// Work-based model: same invariants hold with the deterministic mean-field
// execution.
class WorkModelSweep : public testing::TestWithParam<const char*> {};

TEST_P(WorkModelSweep, CompletesUnderWorkModel) {
  const Cluster cluster = Cluster::paper30();
  auto jobs = mixed_workload(5);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 5;
  config.model = ExecutionModel::kWorkBased;
  config.record_utilization = true;

  auto scheduler = named_policy(GetParam());
  const SimResult result = simulate(cluster, config, jobs, *scheduler);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (const auto& u : result.utilization) {
    ASSERT_LE(u.cpu, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, WorkModelSweep,
                         testing::Values("capacity", "tetris", "dollymp2"));

}  // namespace
}  // namespace dollymp
