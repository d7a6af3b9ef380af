// Accounting precision under failures: re-executions are not clones, the
// unscheduled-task counters stay exact, and clone statistics remain
// meaningful under churn.
#include <gtest/gtest.h>

#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/simulator.h"
#include "recorded_run.h"

namespace dollymp {
namespace {

class FifoScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "acct-fifo"; }
  void schedule(SchedulerContext& ctx) override {
    for (JobRuntime* job : ctx.active_jobs()) place_job_greedy(ctx, *job);
  }
};

TEST(FailureAccounting, ReexecutionsAreNotClones) {
  // FIFO never clones; with failures on, every extra copy is a
  // re-execution and the clone counters must stay at zero.
  const Cluster cluster = Cluster::uniform(4, {8, 16});
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 3;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 200.0;
  config.failures.mean_repair_seconds = 60.0;

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {2, 4}, 60.0, 0.0, i * 20.0));
  }
  FifoScheduler fifo;
  const auto run = test_support::simulate_recorded(cluster, config, jobs, fifo);
  const SimResult& result = run.result;

  const long long failures = test_support::count_kind(run.stream, TraceEv::kServerFailed);
  const long long kills = test_support::count_kind(run.stream, TraceEv::kCopyKilled);
  ASSERT_GT(failures, 0) << "test needs at least one crash to be meaningful";
  ASSERT_GT(kills, 0);
  for (const auto& j : result.jobs) {
    EXPECT_EQ(j.clones_launched, 0) << "job " << j.id;
    EXPECT_EQ(j.tasks_with_clones, 0) << "job " << j.id;
  }
  // Re-executions made total copies exceed the task count.
  EXPECT_GT(result.total_copies_launched, result.total_tasks_completed);
}

TEST(FailureAccounting, ReexecutionAppearsAsCopyPlacedEvent) {
  const Cluster cluster = Cluster::uniform(3, {8, 16});
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 7;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 150.0;
  config.failures.mean_repair_seconds = 50.0;

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 15; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {2, 4}, 80.0, 0.0, i * 25.0));
  }
  FifoScheduler fifo;
  const auto run = test_support::simulate_recorded(cluster, config, jobs, fifo);
  EXPECT_EQ(test_support::count_kind(run.stream, TraceEv::kClonePlaced), 0)
      << "FIFO re-executions must be plain placements";
  EXPECT_EQ(test_support::count_kind(run.stream, TraceEv::kCopyPlaced),
            run.result.total_copies_launched);
}

TEST(FailureAccounting, ClonesStillCountedWithFailures) {
  // DollyMP with clones AND failures: tasks_with_clones counts exactly the
  // tasks that at some point had a redundant sibling.
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 9;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 500.0;
  config.failures.mean_repair_seconds = 100.0;

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 2}, 40.0, 30.0, i * 40.0));
  }
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, jobs, scheduler);
  long long with_clones = 0;
  long long clones = 0;
  for (const auto& j : result.jobs) {
    with_clones += j.tasks_with_clones;
    clones += j.clones_launched;
    EXPECT_LE(j.tasks_with_clones, j.total_tasks);
  }
  EXPECT_GT(clones, 0);
  EXPECT_GT(with_clones, 0);
  EXPECT_LE(with_clones, clones) << "each cloned task launched >= 1 clone";
}

}  // namespace
}  // namespace dollymp
