// The shared placement helpers every policy builds on (sched/scheduler.h).
#include <gtest/gtest.h>

#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/runtime_store.h"

namespace dollymp {
namespace {

TEST(BestFit, PicksLargestAlignment) {
  Cluster cluster;
  cluster.add_server(ServerSpec{{8, 8}, 1.0, 0});   // free (8,8)
  cluster.add_server(ServerSpec{{16, 16}, 1.0, 0}); // free (16,16): bigger dot
  EXPECT_EQ(best_fit_server(cluster, {1, 1}), 1);
  // Fill server b so a wins.
  ASSERT_TRUE(cluster.server(1).allocate({15, 15}));
  EXPECT_EQ(best_fit_server(cluster, {1, 1}), 0);
}

TEST(BestFit, ReturnsInvalidWhenNothingFits) {
  Cluster cluster = Cluster::uniform(3, {2, 2});
  EXPECT_EQ(best_fit_server(cluster, {4, 1}), kInvalidServer);
  for (auto& s : cluster.servers()) ASSERT_TRUE(s.allocate({2, 2}));
  EXPECT_EQ(best_fit_server(cluster, {1, 1}), kInvalidServer);
}

TEST(FirstFit, PicksLowestIndexThatFits) {
  Cluster cluster = Cluster::uniform(4, {4, 4});
  ASSERT_TRUE(cluster.server(0).allocate({4, 4}));
  ASSERT_TRUE(cluster.server(1).allocate({3, 3}));
  EXPECT_EQ(first_fit_server(cluster, {2, 2}), 2);
  EXPECT_EQ(first_fit_server(cluster, {1, 1}), 1);
  EXPECT_EQ(first_fit_server(cluster, {5, 5}), kInvalidServer);
}

TEST(JobActiveAllocation, SumsActiveCopiesOnly) {
  JobSpec spec = JobSpec::single_phase(0, 3, {2, 4}, 10.0);
  Cluster cluster = Cluster::uniform(2, {8, 16});
  const LocalityModel locality({}, cluster);
  Rng rng(1);
  RuntimeStore store;
  JobRuntime& job = store.jobs()[store.materialize(spec, 1.0, locality, rng)];
  EXPECT_EQ(job_active_allocation(job), Resources(0, 0));
  EXPECT_EQ(job_active_allocation_scan(job), Resources(0, 0));
  // Fake two active copies on task 0 and one inactive on task 1, keeping
  // the phase's active_copies counter consistent (as the simulator does):
  // job_active_allocation reads the counter, the scan walks the copies.
  auto& tasks = job.phases[0].tasks;
  tasks[0].copies.push_back({.server = 0, .start = 0, .finish = 5, .active = true});
  tasks[0].copies.push_back({.server = 1, .start = 0, .finish = 5, .active = true});
  tasks[1].copies.push_back({.server = 0, .start = 0, .finish = 5, .killed = true});
  job.phases[0].active_copies = 2;
  EXPECT_EQ(job_active_allocation(job), Resources(4, 8));
  EXPECT_EQ(job_active_allocation_scan(job), Resources(4, 8));
}

TEST(NextUnscheduledTask, WalksAndSticks) {
  JobSpec spec = JobSpec::single_phase(0, 3, {1, 1}, 10.0);
  Cluster cluster = Cluster::uniform(1, {8, 8});
  const LocalityModel locality({}, cluster);
  Rng rng(2);
  RuntimeStore store;
  JobRuntime& job = store.jobs()[store.materialize(spec, 1.0, locality, rng)];
  PhaseRuntime& phase = job.phases[0];
  EXPECT_EQ(next_unscheduled_task(phase), &phase.tasks[0]);
  // Simulate scheduling task 0.
  phase.tasks[0].copies.push_back({.server = 0, .start = 0, .finish = 10, .active = true});
  --phase.unscheduled_tasks;
  EXPECT_EQ(next_unscheduled_task(phase), &phase.tasks[1]);
  phase.tasks[1].copies.push_back({.server = 0, .start = 0, .finish = 10, .active = true});
  --phase.unscheduled_tasks;
  phase.tasks[2].copies.push_back({.server = 0, .start = 0, .finish = 10, .active = true});
  --phase.unscheduled_tasks;
  EXPECT_EQ(next_unscheduled_task(phase), nullptr);
}

}  // namespace
}  // namespace dollymp
