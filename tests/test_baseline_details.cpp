// Detailed behavioural contracts of the baseline schedulers — the
// properties that make each baseline the thing the paper compares against.
#include <gtest/gtest.h>

#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"

namespace dollymp {
namespace {

SimConfig quiet(std::uint64_t seed = 1, double slot = 1.0) {
  SimConfig config;
  config.slot_seconds = slot;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

// ---- Capacity ---------------------------------------------------------------

TEST(CapacityDetails, HeadOfLineBlocking) {
  // Server (4,4).  Head job: 2 tasks of (3,3) -> only one fits at a time,
  // so the head always has an unmet request while running.  A (1,1) job
  // behind it COULD backfill, but the Capacity Scheduler's head-of-line
  // reservation must hold it back until the head finishes.
  const Cluster cluster = Cluster::single({4, 4});
  JobSpec head = JobSpec::single_phase(0, 2, {3, 3}, 10.0);
  JobSpec small = JobSpec::single_task(1, {1, 1}, 5.0);
  CapacityConfig cc;
  cc.speculation.enabled = false;
  CapacityScheduler capacity(cc);
  SimConfig config = quiet(1);
  config.record_tasks = true;
  const SimResult result = simulate(cluster, config, {head, small}, capacity);
  // Head runs 10 + 10 serially.  While its second request is unmet
  // (t in [0, 10)) the small job is held back even though it would fit;
  // once the head's last task is placed at t = 10 backfill opens up.
  EXPECT_DOUBLE_EQ(result.job(0).finish_seconds, 20.0);
  EXPECT_DOUBLE_EQ(result.job(1).first_start_seconds, 10.0);
}

TEST(CapacityDetails, NoBlockingWhenHeadIsSatisfied) {
  // Same setup but the head's two tasks fit together: the small job
  // backfills immediately.
  const Cluster cluster = Cluster::single({8, 8});
  JobSpec head = JobSpec::single_phase(0, 2, {3, 3}, 10.0);
  JobSpec small = JobSpec::single_task(1, {1, 1}, 5.0);
  CapacityConfig cc;
  cc.speculation.enabled = false;
  CapacityScheduler capacity(cc);
  const SimResult result = simulate(cluster, quiet(2), {head, small}, capacity);
  EXPECT_DOUBLE_EQ(result.job(1).first_start_seconds, 0.0);
}

TEST(CapacityDetails, FirstFitIgnoresPacking) {
  // Two servers: A (4,16) then B (4,4).  A memory-light task "fits best"
  // on B, but Capacity's first-fit puts it on A — verified indirectly: a
  // following memory-heavy task (4,16) then cannot be placed anywhere and
  // must wait, whereas a best-fit packer would have kept A open.
  Cluster cluster;
  cluster.add_server(ServerSpec{{4, 16}, 1.0, 0});
  cluster.add_server(ServerSpec{{4, 4}, 1.0, 0});
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {4, 4}, 10.0),    // cpu-wide, memory-light
      JobSpec::single_task(1, {4, 16}, 10.0),   // needs the big-mem server
  };
  CapacityConfig cc;
  cc.speculation.enabled = false;
  CapacityScheduler capacity(cc);
  const SimResult capacity_result = simulate(cluster, quiet(3), jobs, capacity);
  EXPECT_GE(capacity_result.job(1).first_start_seconds, 10.0)
      << "first-fit strands the big-mem server under the light task";

  TetrisScheduler tetris;
  const SimResult tetris_result = simulate(cluster, quiet(3), jobs, tetris);
  EXPECT_DOUBLE_EQ(tetris_result.job(1).first_start_seconds, 0.0)
      << "alignment packing keeps the big-mem server for the big-mem task";
}

// ---- Tetris -----------------------------------------------------------------

TEST(TetrisDetails, DeltaKnobTradesPackingForShortness) {
  // One unit server; a full-server long job and two small short jobs.
  // delta = 0 (pure packing): big job first.  Large delta (SRPT-heavy):
  // small jobs first.
  const Cluster cluster = Cluster::single({1, 1});
  const std::vector<JobSpec> jobs{
      JobSpec::single_task(0, {1.0, 1.0}, 20.0),
      JobSpec::single_task(1, {0.25, 0.25}, 4.0),
      JobSpec::single_task(2, {0.25, 0.25}, 4.0),
  };
  SimConfig config = quiet(5);
  config.record_tasks = true;

  TetrisScheduler pure_packing(TetrisConfig{0.0});
  const SimResult packing = simulate(cluster, config, jobs, pure_packing);
  EXPECT_DOUBLE_EQ(packing.job(0).first_start_seconds, 0.0);

  TetrisScheduler srpt_heavy(TetrisConfig{10.0});
  const SimResult srpt = simulate(cluster, config, jobs, srpt_heavy);
  EXPECT_DOUBLE_EQ(srpt.job(1).first_start_seconds, 0.0);
  EXPECT_GT(srpt.job(0).first_start_seconds, 0.0);
}

TEST(TetrisDetails, NeverClones) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 2}, 20.0, 15.0));
  }
  TetrisScheduler tetris;
  const SimResult result = simulate(cluster, quiet(7), jobs, tetris);
  for (const auto& j : result.jobs) {
    EXPECT_EQ(j.clones_launched, 0);
    EXPECT_EQ(j.speculative_launched, 0);
  }
}

// ---- DRF --------------------------------------------------------------------

TEST(DrfDetails, SharesBetweenManyJobs) {
  // Six identical jobs, batch arrival, each wanting more than 1/6 of the
  // cluster: DRF must start tasks from every job in the first wave rather
  // than serving any one job fully.
  const Cluster cluster = Cluster::uniform(3, {4, 8});  // 12 cores total
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 6, {1, 2}, 20.0));
  }
  SimConfig config = quiet(9);
  config.record_tasks = true;
  DrfScheduler drf;
  const SimResult result = simulate(cluster, config, jobs, drf);
  int jobs_started_at_zero = 0;
  std::vector<bool> started(6, false);
  for (const auto& t : result.tasks) {
    if (t.first_start_seconds == 0.0) started[static_cast<std::size_t>(t.ref.job)] = true;
  }
  for (const bool s : started) jobs_started_at_zero += s ? 1 : 0;
  EXPECT_EQ(jobs_started_at_zero, 6) << "DRF starts every job in the first wave";
}

// ---- Carbyne ----------------------------------------------------------------

TEST(CarbyneDetails, FairShareCapInFirstPass) {
  // Two jobs, one huge and one small, batch arrival on a 12-core cluster.
  // Carbyne's pass 1 caps both at half the cluster; pass 2 gives the
  // leftover to the smaller job first.  Net effect: the small job is not
  // starved by the big one (its first tasks start at t = 0).
  const Cluster cluster = Cluster::uniform(3, {4, 8});
  const std::vector<JobSpec> jobs{
      JobSpec::single_phase(0, 24, {1, 2}, 30.0),  // huge
      JobSpec::single_phase(1, 2, {1, 2}, 10.0),   // small
  };
  SimConfig config = quiet(11);
  config.record_tasks = true;
  CarbyneScheduler carbyne;
  const SimResult result = simulate(cluster, config, jobs, carbyne);
  EXPECT_DOUBLE_EQ(result.job(1).first_start_seconds, 0.0);
}

// ---- SRPT / SVF -------------------------------------------------------------

TEST(SimplePriorityDetails, CloneBudgetVariantClones) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  const std::vector<JobSpec> jobs{JobSpec::single_phase(0, 4, {1, 2}, 30.0, 25.0)};
  SimplePriorityScheduler svf1({SimplePriorityRule::kSvf, 1.5, 1});
  const SimResult result = simulate(cluster, quiet(13), jobs, svf1);
  EXPECT_GT(result.jobs[0].clones_launched, 0);
  for (const auto& j : result.jobs) {
    EXPECT_LE(j.clones_launched, j.total_tasks);  // <= 1 clone per task
  }
}

TEST(SimplePriorityDetails, SrptUpdatesAsPhasesComplete) {
  // Job 0: two phases of 10 s each (remaining length 20 at arrival).
  // Job 1: one phase of 15 s.  SRPT starts job 1's task... after job 0's
  // map phase completes, job 0's remaining length (10) < job 1's (15 if
  // not started), so preference order flips dynamically.  The robust
  // check: both jobs complete and the total flowtime is no worse than
  // FIFO's on the same instance.
  const Cluster cluster = Cluster::single({1, 1});
  JobSpec two_phase;
  two_phase.id = 0;
  two_phase.phases.push_back({"a", 1, {1, 1}, 10.0, 0.0, {}});
  two_phase.phases.push_back({"b", 1, {1, 1}, 10.0, 0.0, {0}});
  const std::vector<JobSpec> jobs{two_phase, JobSpec::single_task(1, {1, 1}, 15.0)};
  SimplePriorityScheduler srpt({SimplePriorityRule::kSrpt, 1.5, 0});
  CapacityConfig cc;
  cc.speculation.enabled = false;
  CapacityScheduler fifo(cc);
  const SimResult srpt_result = simulate(cluster, quiet(15), jobs, srpt);
  const SimResult fifo_result = simulate(cluster, quiet(15), jobs, fifo);
  EXPECT_LE(srpt_result.total_flowtime(), fifo_result.total_flowtime() + 1e-9);
}

// ---- Hopper -----------------------------------------------------------------

TEST(HopperDetails, ZeroBudgetDegeneratesToWorkConserving) {
  HopperConfig hc;
  hc.speculation_budget = 0.0;
  hc.speculation.enabled = false;
  HopperScheduler hopper(hc);
  const Cluster cluster = Cluster::uniform(4, {8, 16});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {2, 4}, 30.0, 0.0, i * 5.0));
  }
  SimplePriorityScheduler svf({SimplePriorityRule::kSvf, 1.5, 0});
  const SimResult hopper_result = simulate(cluster, quiet(17), jobs, hopper);
  const SimResult svf_result = simulate(cluster, quiet(17), jobs, svf);
  // With zero reservation Hopper is a virtual-size (~volume) scheduler;
  // flowtimes land in the same ballpark as SVF on a deterministic load.
  EXPECT_NEAR(hopper_result.total_flowtime() / svf_result.total_flowtime(), 1.0, 0.2);
}

}  // namespace
}  // namespace dollymp
