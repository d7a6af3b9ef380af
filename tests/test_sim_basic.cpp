#include "dollymp/sim/simulator.h"

#include <gtest/gtest.h>

#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/sim_core.h"

namespace dollymp {
namespace {

/// Minimal FIFO policy for controlled experiments.
class FifoScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "test-fifo"; }
  void schedule(SchedulerContext& ctx) override {
    for (JobRuntime* job : ctx.active_jobs()) place_job_greedy(ctx, *job);
  }
};

/// Tries to launch `copies` copies of every task immediately (for cap and
/// cloning tests).
class EagerCloneScheduler final : public Scheduler {
 public:
  explicit EagerCloneScheduler(int copies) : copies_(copies) {}
  [[nodiscard]] std::string name() const override { return "test-eager-clone"; }
  void schedule(SchedulerContext& ctx) override {
    for (JobRuntime* job : ctx.active_jobs()) {
      for (auto& phase : job->phases) {
        if (!phase.runnable()) continue;
        for (auto& task : phase.tasks) {
          while (!task.finished && task.total_copies() < copies_) {
            const ServerId server = best_fit_server(ctx.cluster(), task.demand);
            if (server == kInvalidServer) break;
            if (!ctx.place_copy(*job, phase, task, server)) break;
          }
        }
      }
    }
  }

 private:
  int copies_;
};

/// Never places anything (stall detection test).
class LazyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "test-lazy"; }
  void schedule(SchedulerContext&) override {}
};

SimConfig quiet_config(double slot = 1.0) {
  SimConfig config;
  config.slot_seconds = slot;
  config.seed = 1;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.record_utilization = true;
  return config;
}

TEST(Simulator, SingleDeterministicTask) {
  const Cluster cluster = Cluster::single({4, 8});
  // sigma = 0: duration pool is constant theta = 10 s.
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0)};
  FifoScheduler fifo;
  const SimResult result = simulate(cluster, quiet_config(), jobs, fifo);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 10.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].flowtime(), 10.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].running_time(), 10.0);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 10.0);
  EXPECT_EQ(result.total_tasks_completed, 1);
  EXPECT_EQ(result.total_copies_launched, 1);
}

TEST(Simulator, SlotRoundingCeils) {
  const Cluster cluster = Cluster::single({4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 12.0)};
  FifoScheduler fifo;
  const SimResult result = simulate(cluster, quiet_config(5.0), jobs, fifo);
  // 12 s at 5 s slots -> 3 slots -> 15 s.
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 15.0);
}

TEST(Simulator, ArrivalRespected) {
  const Cluster cluster = Cluster::single({4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 5.0, 0.0, 100.0)};
  FifoScheduler fifo;
  const SimResult result = simulate(cluster, quiet_config(), jobs, fifo);
  EXPECT_DOUBLE_EQ(result.jobs[0].first_start_seconds, 100.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].flowtime(), 5.0);
}

TEST(Simulator, PhasePrecedenceEnforced) {
  const Cluster cluster = Cluster::single({16, 32});
  JobSpec job;
  job.id = 0;
  job.name = "two-phase";
  job.phases.push_back({"map", 3, {1, 1}, 10.0, 0.0, {}});
  job.phases.push_back({"reduce", 1, {1, 1}, 5.0, 0.0, {0}});
  SimConfig config = quiet_config();
  config.record_tasks = true;
  FifoScheduler fifo;
  Simulator sim(cluster, config);
  const SimResult result = sim.run({job}, fifo);
  // Maps finish at 10; reduce starts at 10, ends at 15.
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 15.0);
  for (const auto& task : result.tasks) {
    if (task.ref.phase == 1) {
      EXPECT_GE(task.first_start_seconds, 10.0);
    }
  }
}

TEST(Simulator, QueueingWhenClusterFull) {
  // Server fits one task at a time; two identical 10 s jobs at t = 0.
  const Cluster cluster = Cluster::single({1, 1});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0),
                                  JobSpec::single_task(1, {1, 1}, 10.0)};
  FifoScheduler fifo;
  const SimResult result = simulate(cluster, quiet_config(), jobs, fifo);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 10.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].finish_seconds, 20.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].wait_time(), 10.0);
}

TEST(Simulator, UnplaceableJobThrows) {
  const Cluster cluster = Cluster::single({4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {100, 1}, 10.0)};
  FifoScheduler fifo;
  Simulator sim(cluster, quiet_config());
  EXPECT_THROW((void)sim.run(jobs, fifo), std::invalid_argument);
}

// A negative id used to reach DollyMP's per-job tables, which index by id:
// ensure_slot(-1) sized them to 0 and the next write hit index SIZE_MAX.
TEST(Simulator, NegativeJobIdIsRejectedAtIngest) {
  const Cluster cluster = Cluster::uniform(2, {4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0),
                                  JobSpec::single_task(-1, {1, 1}, 10.0)};
  SimCore core(cluster, quiet_config());
  EXPECT_THROW(core.ingest(jobs), std::invalid_argument);
  DollyMPScheduler dollymp;
  Simulator sim(cluster, quiet_config());
  EXPECT_THROW((void)sim.run(jobs, dollymp), std::invalid_argument);
}

TEST(Simulator, StallDetection) {
  const Cluster cluster = Cluster::single({4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0)};
  LazyScheduler lazy;
  Simulator sim(cluster, quiet_config());
  EXPECT_THROW((void)sim.run(jobs, lazy), std::runtime_error);
}

TEST(Simulator, HardCopyCapEnforced) {
  const Cluster cluster = Cluster::uniform(10, {4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 50.0, 10.0)};
  SimConfig config = quiet_config();
  config.max_copies_per_task = 3;
  EagerCloneScheduler eager(10);  // tries to launch 10 copies
  Simulator sim(cluster, config);
  const SimResult result = sim.run(jobs, eager);
  EXPECT_EQ(result.total_copies_launched, 3);
  EXPECT_EQ(result.jobs[0].clones_launched, 2);
  EXPECT_EQ(result.jobs[0].tasks_with_clones, 1);
}

TEST(Simulator, DeterministicGivenSeed) {
  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 2}, 30.0, 20.0, i * 5.0));
  }
  SimConfig config = quiet_config(5.0);
  config.background.enabled = true;
  config.locality.enabled = true;
  FifoScheduler fifo;
  const SimResult a = simulate(cluster, config, jobs, fifo);
  const SimResult b = simulate(cluster, config, jobs, fifo);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
    EXPECT_DOUBLE_EQ(a.jobs[i].resource_seconds, b.jobs[i].resource_seconds);
  }
}

TEST(Simulator, DifferentSeedsGiveDifferentRealizations) {
  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 2}, 30.0, 25.0, 0.0));
  }
  SimConfig config = quiet_config(5.0);
  FifoScheduler fifo;
  config.seed = 1;
  const SimResult a = simulate(cluster, config, jobs, fifo);
  config.seed = 2;
  const SimResult b = simulate(cluster, config, jobs, fifo);
  // Slot quantization can make aggregate sums collide; require that the
  // realization differs somewhere observable.
  bool any_difference = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    any_difference |= a.jobs[i].finish_seconds != b.jobs[i].finish_seconds;
    any_difference |= a.jobs[i].resource_seconds != b.jobs[i].resource_seconds;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Simulator, CloneNeverHurtsWithConstantDurations) {
  // sigma = 0: all copies take exactly theta, cloning changes nothing in
  // completion time (min of equals).
  const Cluster cluster = Cluster::uniform(4, {4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0)};
  FifoScheduler fifo;
  EagerCloneScheduler eager(3);
  const SimResult plain = simulate(cluster, quiet_config(), jobs, fifo);
  const SimResult cloned = simulate(cluster, quiet_config(), jobs, eager);
  EXPECT_DOUBLE_EQ(plain.jobs[0].finish_seconds, cloned.jobs[0].finish_seconds);
  // But cloning costs resources.
  EXPECT_GT(cloned.jobs[0].resource_seconds, plain.jobs[0].resource_seconds);
}

TEST(Simulator, CloningReducesMeanCompletionUnderStragglers) {
  // High-variance tasks: min-of-copies cuts the tail.  Average over seeds.
  const Cluster cluster = Cluster::uniform(4, {4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 30.0, 30.0)};
  double plain_total = 0.0;
  double cloned_total = 0.0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SimConfig config = quiet_config();
    config.seed = seed;
    FifoScheduler fifo;
    EagerCloneScheduler eager(3);
    plain_total += simulate(cluster, config, jobs, fifo).jobs[0].finish_seconds;
    cloned_total += simulate(cluster, config, jobs, eager).jobs[0].finish_seconds;
  }
  EXPECT_LT(cloned_total, plain_total);
}

TEST(Simulator, FasterServerShortensTasks) {
  Cluster fast;
  fast.add_server(ServerSpec{{4, 8}, 2.0, 0});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0)};
  FifoScheduler fifo;
  const SimResult result = simulate(fast, quiet_config(), jobs, fifo);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 5.0);
}

TEST(Simulator, UtilizationSamplesBounded) {
  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 10, {2, 4}, 40.0, 20.0, i * 2.0));
  }
  SimConfig config = quiet_config(5.0);
  EagerCloneScheduler eager(3);
  const SimResult result = simulate(cluster, config, jobs, eager);
  ASSERT_FALSE(result.utilization.empty());
  for (const auto& u : result.utilization) {
    ASSERT_LE(u.cpu, 1.0 + 1e-9);
    ASSERT_LE(u.mem, 1.0 + 1e-9);
    ASSERT_GE(u.cpu, 0.0);
  }
}

TEST(Simulator, ResourceSecondsAccountsAllCopies) {
  const Cluster cluster = Cluster::uniform(3, {1, 1});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0)};
  EagerCloneScheduler eager(3);
  const SimResult result = simulate(cluster, quiet_config(), jobs, eager);
  // Three copies, each 10 s, each using 1/3 of CPU + 1/3 of memory.
  EXPECT_NEAR(result.jobs[0].resource_seconds, 3.0 * 10.0 * (1.0 / 3.0 + 1.0 / 3.0), 1e-9);
}

TEST(Simulator, WorkBasedModelMatchesEq6) {
  // theta = 10 s, slot 1 s.  alpha = 3 -> h(2) = (3 - 1/2) / 2 = 1.25.
  // With two copies from t = 0 the task needs ceil(10 / 1.25) = 8 slots.
  const double theta = 10.0;
  const double alpha = 3.0;
  // cv^2 = 1/(alpha(alpha-2)) = 1/3.
  const double sigma = theta / std::sqrt(3.0);
  const Cluster cluster = Cluster::uniform(2, {1, 1});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, theta, sigma)};
  SimConfig config = quiet_config();
  config.model = ExecutionModel::kWorkBased;

  FifoScheduler fifo;
  const SimResult one_copy = simulate(cluster, config, jobs, fifo);
  EXPECT_DOUBLE_EQ(one_copy.jobs[0].finish_seconds, 10.0);

  EagerCloneScheduler eager(2);
  const SimResult two_copies = simulate(cluster, config, jobs, eager);
  EXPECT_DOUBLE_EQ(two_copies.jobs[0].finish_seconds, 8.0);
  (void)alpha;
}

TEST(Simulator, WorkBasedLateCloneStillHelps) {
  // One copy for 4 slots (work 4), then a clone joins: remaining 6 work at
  // rate 1.25 -> ceil(6/1.25) = 5 more slots -> finish at 9.
  class LateCloneScheduler final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "late-clone"; }
    void schedule(SchedulerContext& ctx) override {
      for (JobRuntime* job : ctx.active_jobs()) {
        for (auto& phase : job->phases) {
          for (auto& task : phase.tasks) {
            if (task.finished) continue;
            if (!task.scheduled()) {
              (void)ctx.place_copy(*job, phase, task,
                                   best_fit_server(ctx.cluster(), task.demand));
            } else if (ctx.now() >= 4 && task.total_copies() < 2) {
              (void)ctx.place_copy(*job, phase, task,
                                   best_fit_server(ctx.cluster(), task.demand));
            }
          }
        }
      }
      // Time-triggered policy under the event-driven control plane: ask to
      // be woken at the clone deadline instead of polling every slot.
      if (ctx.now() < 4) ctx.request_wakeup(4);
    }
  };

  const double theta = 10.0;
  const double sigma = theta / std::sqrt(3.0);  // alpha = 3
  const Cluster cluster = Cluster::uniform(2, {1, 1});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, theta, sigma)};
  SimConfig config = quiet_config();
  config.model = ExecutionModel::kWorkBased;
  LateCloneScheduler late;
  const SimResult result = simulate(cluster, config, jobs, late);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish_seconds, 9.0);
}

TEST(Simulator, KeepBestLocalityChargesKeptCopy) {
  // Two-phase job so the map phase "has children"; under kKeepBestLocality
  // the surviving sibling keeps running after first finish and costs more
  // resource-seconds than under kKillImmediately.
  const Cluster cluster = Cluster::uniform(4, {2, 2});
  JobSpec job;
  job.id = 0;
  job.phases.push_back({"map", 2, {1, 1}, 20.0, 15.0, {}});
  job.phases.push_back({"reduce", 1, {1, 1}, 5.0, 0.0, {0}});

  SimConfig kill = quiet_config();
  kill.kill_policy = CloneKillPolicy::kKillImmediately;
  SimConfig keep = quiet_config();
  keep.kill_policy = CloneKillPolicy::kKeepBestLocality;

  EagerCloneScheduler eager(2);
  const SimResult killed = simulate(cluster, kill, {job}, eager);
  const SimResult kept = simulate(cluster, keep, {job}, eager);
  EXPECT_GE(kept.jobs[0].resource_seconds, killed.jobs[0].resource_seconds);
}

TEST(Simulator, RecordsTasksWhenAsked) {
  const Cluster cluster = Cluster::single({8, 8});
  SimConfig config = quiet_config();
  config.record_tasks = true;
  FifoScheduler fifo;
  Simulator sim(cluster, config);
  const SimResult result = sim.run({JobSpec::single_phase(0, 3, {1, 1}, 10.0)}, fifo);
  EXPECT_EQ(result.tasks.size(), 3u);
}

TEST(Simulator, ConfigValidation) {
  SimConfig bad;
  bad.slot_seconds = 0.0;
  EXPECT_THROW(Simulator(Cluster::single({1, 1}), bad), std::invalid_argument);
  SimConfig bad2;
  bad2.max_copies_per_task = 0;
  EXPECT_THROW(Simulator(Cluster::single({1, 1}), bad2), std::invalid_argument);
  EXPECT_THROW(Simulator(Cluster{}, SimConfig{}), std::invalid_argument);
}

TEST(Simulator, JobRecordLookup) {
  const Cluster cluster = Cluster::single({4, 4});
  FifoScheduler fifo;
  const SimResult result =
      simulate(cluster, quiet_config(), {JobSpec::single_task(7, {1, 1}, 5.0)}, fifo);
  EXPECT_EQ(result.job(7).id, 7);
  EXPECT_THROW(result.job(99), std::out_of_range);
}

}  // namespace
}  // namespace dollymp
