// The experiment runner: paired comparisons and seed replication, serial
// and parallel paths.
#include "dollymp/common/experiment.h"

#include <gtest/gtest.h>

#include "dollymp/sched/capacity.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"

namespace dollymp {
namespace {

ComparisonSpec make_spec(std::uint64_t seed = 1) {
  ComparisonSpec spec;
  spec.cluster = Cluster::paper30();
  spec.config.slot_seconds = 5.0;
  spec.config.seed = seed;
  for (int i = 0; i < 10; ++i) {
    spec.jobs.push_back(make_wordcount(i, 1.0 + (i % 2)));
  }
  assign_jittered_arrivals(spec.jobs, 40.0, 0.2, seed);
  return spec;
}

std::vector<ComparisonEntry> entries() {
  return {
      {"capacity", [] { return std::make_unique<CapacityScheduler>(); }},
      {"tetris", [] { return std::make_unique<TetrisScheduler>(); }},
      {"dollymp2", [] { return std::make_unique<DollyMPScheduler>(); }},
  };
}

TEST(Experiment, SerialComparisonReturnsInOrder) {
  const auto results = run_comparison(make_spec(), entries());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].scheduler, "capacity");
  EXPECT_EQ(results[1].scheduler, "tetris");
  EXPECT_EQ(results[2].scheduler, "dollymp2");
  for (const auto& r : results) {
    EXPECT_EQ(r.jobs.size(), 10u);
  }
}

TEST(Experiment, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const auto serial = run_comparison(make_spec(), entries());
  const auto parallel = run_comparison(make_spec(), entries(), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scheduler, parallel[i].scheduler);
    EXPECT_DOUBLE_EQ(serial[i].total_flowtime(), parallel[i].total_flowtime());
    EXPECT_DOUBLE_EQ(serial[i].makespan_seconds, parallel[i].makespan_seconds);
  }
}

TEST(Experiment, PairedEnvironment) {
  // All schedulers face the same realization: the per-job first-copy
  // durations are identical, so a do-nothing-different scheduler pair gets
  // identical results.
  const auto spec = make_spec(9);
  const std::vector<ComparisonEntry> twins{
      {"a", [] { return std::make_unique<TetrisScheduler>(); }},
      {"b", [] { return std::make_unique<TetrisScheduler>(); }},
  };
  const auto results = run_comparison(spec, twins);
  EXPECT_DOUBLE_EQ(results[0].total_flowtime(), results[1].total_flowtime());
}

// Seed replication is run_sweep with no fault presets: one pass-through
// "base" cell per policy, aggregated over the seeds.
TEST(Experiment, ReplicatedStatsShape) {
  const ComparisonSpec comparison = make_spec();
  SweepSpec spec;
  spec.cluster = comparison.cluster;
  spec.base = comparison.config;
  spec.jobs = comparison.jobs;
  spec.policies = entries();
  spec.seeds = {1, 2, 3, 4};
  ThreadPool pool(4);
  const SweepResult result = run_sweep(spec, &pool);
  ASSERT_EQ(result.cells.size(), 3u);
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.fault, "base");
    EXPECT_EQ(cell.total_flowtime_seconds.count(), 4u);
    EXPECT_GT(cell.total_flowtime_seconds.mean(), 0.0);
    EXPECT_GT(cell.makespan_seconds.min(), 0.0);
    // Different seeds produce at least some variation.
    EXPECT_GT(cell.total_flowtime_seconds.max(), cell.total_flowtime_seconds.min());
  }
  // DollyMP^2 proactively clones far more tasks than Capacity's reactive
  // speculation backs up (tasks_with_clones counts either kind of second
  // copy).
  EXPECT_GT(result.cells[2].cloned_task_fraction.mean(),
            result.cells[0].cloned_task_fraction.mean());
  // Tetris has neither cloning nor speculation.
  EXPECT_DOUBLE_EQ(result.cells[1].cloned_task_fraction.mean(), 0.0);
}

TEST(Experiment, NullFactoryThrows) {
  auto spec = make_spec();
  const std::vector<ComparisonEntry> bad{{"null", [] {
    return std::unique_ptr<Scheduler>{};
  }}};
  EXPECT_THROW((void)run_comparison(spec, bad), std::invalid_argument);
}

}  // namespace
}  // namespace dollymp
