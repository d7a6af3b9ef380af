// Machine-failure injection: servers crash and recover; killed tasks are
// re-placed; all invariants survive.
#include <gtest/gtest.h>

#include <vector>

#include "dollymp/sched/capacity.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"
#include "recorded_run.h"

namespace dollymp {
namespace {

SimConfig failing_config(std::uint64_t seed, double mtbf, double repair) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = mtbf;
  config.failures.mean_repair_seconds = repair;
  return config;
}

std::vector<JobSpec> workload(int count) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 5, {2, 4}, 40.0, 20.0, i * 15.0));
  }
  return jobs;
}

TEST(Failures, AllJobsStillComplete) {
  // Aggressive failures: MTBF comparable to task durations.
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  DollyMPScheduler scheduler;
  const SimResult result =
      simulate(cluster, failing_config(1, 300.0, 60.0), workload(30), scheduler);
  ASSERT_EQ(result.jobs.size(), 30u);
  for (const auto& j : result.jobs) {
    EXPECT_GT(j.finish_seconds, j.arrival_seconds);
  }
}

// A crash on a server running copies kills every one of them in the crash's
// slot, and a crash on an idle server kills nothing; the run must see both
// kinds.  Replays the record stream, counting running copies per server.
TEST(Failures, CrashKillsEveryCopyOnTheFailedServer) {
  const Cluster cluster = Cluster::uniform(16, {8, 16});
  DollyMPScheduler scheduler;
  const test_support::RecordedRun run = test_support::simulate_recorded(
      cluster, failing_config(3, 300.0, 60.0), workload(30), scheduler);
  std::vector<int> running(cluster.size(), 0);
  std::vector<bool> down(cluster.size(), false);
  int busy_crashes = 0;
  int idle_crashes = 0;
  SimTime slot = 0;
  const auto expect_down_servers_empty = [&] {
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      if (down[s]) EXPECT_EQ(running[s], 0) << "server " << s << " at slot " << slot;
    }
  };
  for (const TraceRecord& r : run.stream) {
    if (r.slot != slot) {
      expect_down_servers_empty();
      slot = r.slot;
    }
    const auto s = static_cast<std::size_t>(r.server);
    switch (r.type) {
      case TraceEv::kCopyPlaced:
      case TraceEv::kClonePlaced:
      case TraceEv::kSpeculativePlaced:
        EXPECT_FALSE(down[s]);
        ++running[s];
        break;
      case TraceEv::kCopyFinished:
      case TraceEv::kCopyKilled:
        --running[s];
        break;
      case TraceEv::kServerFailed:
        down[s] = true;
        ++(running[s] > 0 ? busy_crashes : idle_crashes);
        break;
      case TraceEv::kServerRepaired:
        down[s] = false;
        break;
      default:
        break;
    }
  }
  expect_down_servers_empty();
  EXPECT_GT(busy_crashes, 0);
  EXPECT_GT(idle_crashes, 0);
  EXPECT_GT(run.result.stats.copies_killed_by_faults, 0);
}

TEST(Failures, DeterministicGivenSeed) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  DollyMPScheduler s1;
  DollyMPScheduler s2;
  const auto jobs = workload(20);
  const SimResult a = simulate(cluster, failing_config(5, 400.0, 100.0), jobs, s1);
  const SimResult b = simulate(cluster, failing_config(5, 400.0, 100.0), jobs, s2);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
  }
}

TEST(Failures, FailuresProlongJobs) {
  // On average, a failing cluster should complete the workload later than a
  // healthy one (re-execution costs time).
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  double failing_total = 0.0;
  double healthy_total = 0.0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    DollyMPScheduler s1;
    DollyMPScheduler s2;
    const auto jobs = workload(15);
    failing_total +=
        simulate(cluster, failing_config(seed, 250.0, 120.0), jobs, s1).total_flowtime();
    SimConfig healthy = failing_config(seed, 250.0, 120.0);
    healthy.failures.enabled = false;
    healthy_total += simulate(cluster, healthy, jobs, s2).total_flowtime();
  }
  EXPECT_GT(failing_total, healthy_total);
}

TEST(Failures, CapacityInvariantHoldsUnderChurn) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  SimConfig config = failing_config(7, 200.0, 80.0);
  config.record_utilization = true;
  TetrisScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(25), scheduler);
  for (const auto& u : result.utilization) {
    ASSERT_LE(u.cpu, 1.0 + 1e-9);
    ASSERT_LE(u.mem, 1.0 + 1e-9);
  }
}

TEST(Failures, WorkBasedModelSurvivesFailures) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  SimConfig config = failing_config(9, 300.0, 100.0);
  config.model = ExecutionModel::kWorkBased;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(15), scheduler);
  ASSERT_EQ(result.jobs.size(), 15u);
}

TEST(Failures, SpeculativeBaselineSurvivesFailures) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  CapacityScheduler scheduler;
  const SimResult result =
      simulate(cluster, failing_config(11, 350.0, 90.0), workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
}

TEST(Failures, DownServerRefusesPlacement) {
  Cluster cluster;
  cluster.add_server(ServerSpec{{8, 16}, 1.0, 0});
  Server& server = cluster.server(0);
  EXPECT_TRUE(server.can_fit({1, 1}));
  server.set_down(true);
  EXPECT_TRUE(server.is_down());
  EXPECT_FALSE(server.can_fit({1, 1}));
  EXPECT_FALSE(server.allocate({1, 1}));
  server.set_down(false);
  EXPECT_TRUE(server.allocate({1, 1}));
  server.reset();
  EXPECT_FALSE(server.is_down());
}

TEST(Failures, SingleServerClusterRecovers) {
  // Everything dies with the only server; jobs must still finish after the
  // repair.
  const Cluster cluster = Cluster::single({8, 16});
  DollyMPScheduler scheduler;
  const SimResult result =
      simulate(cluster, failing_config(13, 150.0, 50.0), workload(5), scheduler);
  ASSERT_EQ(result.jobs.size(), 5u);
}

}  // namespace
}  // namespace dollymp
