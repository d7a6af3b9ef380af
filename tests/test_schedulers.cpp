// Behavioural tests for the scheduling policies themselves.
#include <gtest/gtest.h>

#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"

namespace dollymp {
namespace {

SimConfig clean_config(double slot = 1.0, std::uint64_t seed = 1) {
  SimConfig config;
  config.slot_seconds = slot;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

TEST(SchedulerNames, AreStable) {
  EXPECT_EQ(CapacityScheduler().name(), "capacity");
  EXPECT_EQ(DrfScheduler().name(), "drf");
  EXPECT_EQ(TetrisScheduler().name(), "tetris");
  EXPECT_EQ(CarbyneScheduler().name(), "carbyne");
  EXPECT_EQ(DollyMPScheduler(DollyMPConfig{0}).name(), "dollymp^0");
  EXPECT_EQ(DollyMPScheduler(DollyMPConfig{2}).name(), "dollymp^2");
  EXPECT_EQ(SimplePriorityScheduler({SimplePriorityRule::kSrpt, 1.5, 0}).name(), "srpt");
  EXPECT_EQ(SimplePriorityScheduler({SimplePriorityRule::kSvf, 1.5, 1}).name(), "svf^1");
}

TEST(SchedulerConfigs, RejectNegativeCloneBudgets) {
  EXPECT_THROW(DollyMPScheduler(DollyMPConfig{-1}), std::invalid_argument);
  EXPECT_THROW(SimplePriorityScheduler({SimplePriorityRule::kSrpt, 1.5, -1}),
               std::invalid_argument);
}

// With one server and two deterministic single-task jobs of very different
// lengths arriving together, size-aware policies run the short job first;
// FIFO (capacity) runs them in arrival order.
TEST(Policies, SizeAwareOrdering) {
  const Cluster cluster = Cluster::single({1, 1});
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {1, 1}, 100.0),  // long, arrives first
      JobSpec::single_task(1, {1, 1}, 10.0),   // short
  };

  CapacityConfig cc;
  cc.speculation.enabled = false;
  CapacityScheduler capacity(cc);
  const SimResult fifo = simulate(cluster, clean_config(), jobs, capacity);
  EXPECT_DOUBLE_EQ(fifo.job(0).finish_seconds, 100.0);
  EXPECT_DOUBLE_EQ(fifo.job(1).finish_seconds, 110.0);
  EXPECT_DOUBLE_EQ(fifo.total_flowtime(), 210.0);

  for (auto* scheduler_name : {"srpt", "svf", "dollymp"}) {
    std::unique_ptr<Scheduler> s;
    if (std::string(scheduler_name) == "srpt") {
      s = std::make_unique<SimplePriorityScheduler>(
          SimplePriorityConfig{SimplePriorityRule::kSrpt, 1.5, 0});
    } else if (std::string(scheduler_name) == "svf") {
      s = std::make_unique<SimplePriorityScheduler>(
          SimplePriorityConfig{SimplePriorityRule::kSvf, 1.5, 0});
    } else {
      s = std::make_unique<DollyMPScheduler>(DollyMPConfig{0});
    }
    const SimResult result = simulate(cluster, clean_config(), jobs, *s);
    EXPECT_DOUBLE_EQ(result.job(1).finish_seconds, 10.0) << scheduler_name;
    EXPECT_DOUBLE_EQ(result.total_flowtime(), 120.0) << scheduler_name;
  }
}

// DRF equalizes dominant shares between two contending jobs.
TEST(Drf, EqualizesDominantShares) {
  // 10 cores, 10 GB.  Job A tasks are CPU-heavy (2,0.5); job B memory-heavy
  // (0.5,2).  DRF should let both run ~equal dominant shares rather than
  // letting one monopolize.
  const Cluster cluster = Cluster::single({10, 10});
  const std::vector<JobSpec> jobs{
      JobSpec::single_phase(0, 20, {2.0, 0.5}, 50.0),
      JobSpec::single_phase(1, 20, {0.5, 2.0}, 50.0),
  };
  SimConfig config = clean_config();
  config.record_tasks = true;
  DrfScheduler drf;
  const SimResult result = simulate(cluster, config, jobs, drf);
  // In the first wave both jobs must have tasks running concurrently.
  int a_first_wave = 0;
  int b_first_wave = 0;
  for (const auto& t : result.tasks) {
    if (t.first_start_seconds == 0.0) {
      (t.ref.job == 0 ? a_first_wave : b_first_wave)++;
    }
  }
  EXPECT_GT(a_first_wave, 0);
  EXPECT_GT(b_first_wave, 0);
  // Dominant shares of the first wave are within one task of each other:
  // a uses 2c per task (share .2), b uses 2GB per task (share .2).
  EXPECT_NEAR(a_first_wave * 0.2, b_first_wave * 0.2, 0.2 + 1e-9);
}

// Tetris prefers the placement that packs complementary demands.
TEST(Tetris, PacksComplementaryDemands) {
  // Server (10,10); a CPU-heavy phase and a memory-heavy phase can overlap
  // perfectly.  Tetris should co-locate them and finish both in one wave.
  const Cluster cluster = Cluster::single({10, 10});
  const std::vector<JobSpec> jobs{
      JobSpec::single_phase(0, 5, {1.8, 0.2}, 10.0),
      JobSpec::single_phase(1, 5, {0.2, 1.8}, 10.0),
  };
  TetrisScheduler tetris;
  const SimResult result = simulate(cluster, clean_config(), jobs, tetris);
  EXPECT_DOUBLE_EQ(result.makespan_seconds, 10.0)
      << "complementary phases must run in a single wave";
}

TEST(Tetris, AlignmentPrefersBigAlignedJobFirst) {
  // The Fig. 2 situation: a full-server job has the highest alignment score
  // and goes first under Tetris even though two small jobs exist.
  const Cluster cluster = Cluster::single({1, 1});
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {1.0, 1.0}, 20.0),
      JobSpec::single_task(1, {0.25, 0.25}, 8.0),
      JobSpec::single_task(2, {0.25, 0.25}, 8.0),
  };
  SimConfig config = clean_config();
  config.record_tasks = true;
  TetrisScheduler tetris;
  const SimResult result = simulate(cluster, config, jobs, tetris);
  EXPECT_DOUBLE_EQ(result.job(0).first_start_seconds, 0.0);
}

// DollyMP clone budget zero vs two on a straggler-heavy workload: cloning
// must reduce mean flowtime (paired seeds).
TEST(DollyMP, CloningHelpsUnderStragglers) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 2}, 30.0, 35.0, i * 10.0));
  }
  double flow0 = 0.0;
  double flow2 = 0.0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    DollyMPScheduler d0{DollyMPConfig{0}};
    DollyMPScheduler d2{DollyMPConfig{2}};
    flow0 += simulate(cluster, clean_config(1.0, seed), jobs, d0).total_flowtime();
    flow2 += simulate(cluster, clean_config(1.0, seed), jobs, d2).total_flowtime();
  }
  EXPECT_LT(flow2, flow0);
}

TEST(DollyMP, NoClonesWhenBudgetZero) {
  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 6, {1, 2}, 30.0, 20.0, 0.0));
  }
  DollyMPScheduler d0{DollyMPConfig{0}};
  const SimResult result = simulate(cluster, clean_config(5.0), jobs, d0);
  for (const auto& j : result.jobs) {
    EXPECT_EQ(j.clones_launched, 0);
  }
}

TEST(DollyMP, PrioritizesSmallJobsOverBigOnes) {
  // Single unit server, transient batch: many small jobs and one large job.
  // DollyMP (knapsack classes) must finish all small jobs before the large
  // one starts.
  const Cluster cluster = Cluster::single({1, 1});
  std::vector<JobSpec> jobs;
  jobs.push_back(JobSpec::single_task(0, {1.0, 1.0}, 64.0));
  for (int i = 1; i <= 4; ++i) {
    jobs.push_back(JobSpec::single_task(i, {0.5, 0.5}, 4.0));
  }
  SimConfig config = clean_config();
  config.record_tasks = true;
  DollyMPScheduler dollymp{DollyMPConfig{0}};
  const SimResult result = simulate(cluster, config, jobs, dollymp);
  double small_max_finish = 0.0;
  for (int i = 1; i <= 4; ++i) {
    small_max_finish = std::max(small_max_finish, result.job(i).finish_seconds);
  }
  EXPECT_LE(small_max_finish, result.job(0).first_start_seconds + 1e-9);
}

TEST(DollyMP, RecomputeOnlyOnArrivalByDefault) {
  DollyMPScheduler scheduler;
  EXPECT_FALSE(scheduler.config().recompute_on_completion);
  EXPECT_EQ(scheduler.config().clone_budget, 2);
  EXPECT_DOUBLE_EQ(scheduler.config().sigma_factor, 1.5);
}

// Carbyne sits between DRF and a pure packer: it must complete everything
// and not be catastrophically worse than DRF on a loaded cluster.
TEST(Carbyne, LeftoverRedistributionBeatsPlainDrfOnSkewedSizes) {
  const Cluster cluster = Cluster::uniform(4, {8, 16});
  std::vector<JobSpec> jobs;
  // Many short jobs + two long ones, batch arrival.
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 2, {2, 4}, 10.0));
  }
  jobs.push_back(JobSpec::single_phase(100, 8, {2, 4}, 80.0));
  jobs.push_back(JobSpec::single_phase(101, 8, {2, 4}, 80.0));

  DrfScheduler drf;
  CarbyneScheduler carbyne;
  const SimResult drf_result = simulate(cluster, clean_config(), jobs, drf);
  const SimResult carbyne_result = simulate(cluster, clean_config(), jobs, carbyne);
  EXPECT_LE(carbyne_result.total_flowtime(), drf_result.total_flowtime() * 1.05);
}

// SRPT with identical demands is optimal for total flowtime on one server;
// verify against the known optimal order.
TEST(Srpt, MatchesOptimalOnUniformDemands) {
  const Cluster cluster = Cluster::single({1, 1});
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {1, 1}, 30.0),
      JobSpec::single_task(1, {1, 1}, 10.0),
      JobSpec::single_task(2, {1, 1}, 20.0),
  };
  SimplePriorityScheduler srpt({SimplePriorityRule::kSrpt, 1.5, 0});
  const SimResult result = simulate(cluster, clean_config(), jobs, srpt);
  // Optimal: 10 + 30 + 60 = 100.
  EXPECT_DOUBLE_EQ(result.total_flowtime(), 100.0);
}

// SVF accounts for demand: a short-but-wide job can rank after a
// longer-but-narrow one.
TEST(Svf, OrdersByVolumeNotJustTime) {
  const Cluster cluster = Cluster::single({1, 1});
  // Job 0: theta 10, demand 1.0 -> volume 10.  Job 1: theta 16, demand 0.25
  // -> volume 4.  SVF runs job 1 first despite it being longer.
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {1.0, 1.0}, 10.0),
      JobSpec::single_task(1, {0.25, 0.25}, 16.0),
  };
  SimConfig config = clean_config();
  config.record_tasks = true;
  SimplePriorityScheduler svf({SimplePriorityRule::kSvf, 1.5, 0});
  const SimResult result = simulate(cluster, config, jobs, svf);
  EXPECT_DOUBLE_EQ(result.job(1).first_start_seconds, 0.0);
}

// Every policy is work-conserving on a trivially placeable workload: an
// idle cluster plus pending runnable tasks is never left idle.
TEST(Policies, WorkConservingOnIdleCluster) {
  const Cluster cluster = Cluster::uniform(2, {4, 8});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0, 0.0, 50.0)};
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<CapacityScheduler>());
  schedulers.push_back(std::make_unique<DrfScheduler>());
  schedulers.push_back(std::make_unique<TetrisScheduler>());
  schedulers.push_back(std::make_unique<CarbyneScheduler>());
  schedulers.push_back(std::make_unique<DollyMPScheduler>());
  for (auto& s : schedulers) {
    const SimResult result = simulate(cluster, clean_config(), jobs, *s);
    EXPECT_DOUBLE_EQ(result.job(0).first_start_seconds, 50.0) << s->name();
  }
}

}  // namespace
}  // namespace dollymp
