// Unit tests for the execution models (sim/execution.h): duration pool
// semantics, environment scaling and the Eq. (4)/(6) work accrual.
#include "dollymp/sim/execution.h"

#include <gtest/gtest.h>

#include <set>

#include "dollymp/sim/runtime_state.h"
#include "dollymp/sim/runtime_store.h"

namespace dollymp {
namespace {

/// Hand-built runtimes need backing storage now that PhaseRuntime holds a
/// span and TaskRuntime a slab-backed copy list.
CopySlab& test_slab() {
  static CopySlab slab;
  return slab;
}

TaskRuntime make_task() {
  TaskRuntime task;
  task.copies.bind(&test_slab());
  return task;
}

void set_pool(PhaseRuntime& phase, std::vector<double> values) {
  static std::vector<std::unique_ptr<std::vector<double>>> pools;  // keep alive
  pools.push_back(std::make_unique<std::vector<double>>(std::move(values)));
  phase.duration_pool.assign(pools.back()->data(), pools.back()->size());
}

PhaseRuntime make_phase(double theta, double sigma, int tasks) {
  static std::vector<std::unique_ptr<PhaseSpec>> specs;  // keep specs alive
  specs.push_back(std::make_unique<PhaseSpec>());
  PhaseSpec& spec = *specs.back();
  spec.name = "p";
  spec.task_count = tasks;
  spec.demand = {1, 1};
  spec.theta_seconds = theta;
  spec.sigma_seconds = sigma;

  PhaseRuntime phase;
  phase.spec = &spec;
  phase.speedup = SpeedupFunction::from_stats(theta, sigma);
  set_pool(phase, std::vector<double>(static_cast<std::size_t>(std::max(tasks, 16)), theta));
  return phase;
}

TEST(Execution, FirstCopyUsesOwnPoolEntry) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 4);
  set_pool(phase, {11.0, 12.0, 13.0, 14.0});
  Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sample_copy_base_seconds(phase, i, /*is_first_copy=*/true, rng),
                     11.0 + i);
  }
}

TEST(Execution, ClonesDrawFromPool) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 4);
  set_pool(phase, {11.0, 12.0, 13.0, 14.0});
  Rng rng(2);
  std::set<double> drawn;
  for (int i = 0; i < 200; ++i) {
    const double d = sample_copy_base_seconds(phase, 0, /*is_first_copy=*/false, rng);
    drawn.insert(d);
    ASSERT_GE(d, 11.0);
    ASSERT_LE(d, 14.0);
  }
  // All pool entries eventually sampled.
  EXPECT_EQ(drawn.size(), 4u);
}

TEST(Execution, EmptyPoolThrows) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 1);
  phase.duration_pool.clear();
  Rng rng(3);
  EXPECT_THROW((void)sample_copy_base_seconds(phase, 0, true, rng), std::logic_error);
}

TEST(Execution, MaterializedPoolHasMinimumSize) {
  // Single-task phases still get a >= 16-entry pool so clones re-draw.
  const JobSpec job = JobSpec::single_task(0, {1, 1}, 30.0, 20.0);
  Cluster cluster = Cluster::uniform(4, {8, 8});
  const LocalityModel locality({}, cluster);
  Rng rng(4);
  RuntimeStore store;
  const JobRuntime& runtime = store.jobs()[store.materialize(job, 1.0, locality, rng)];
  EXPECT_GE(runtime.phases[0].duration_pool.size(), 16u);
}

TEST(Execution, ScaleCopySeconds) {
  // base 10 s, 1.1x locality penalty, 1.5x background contention, 2x speed.
  EXPECT_DOUBLE_EQ(scale_copy_seconds(10.0, /*server_base_speed=*/2.0, 1.1, 1.5),
                   10.0 * 1.1 * 1.5 / 2.0);
  EXPECT_DOUBLE_EQ(scale_copy_seconds(10.0, /*server_base_speed=*/0.5, 1.0, 1.0), 20.0);
  EXPECT_THROW((void)scale_copy_seconds(10.0, 0.0, 1.0, 1.0), std::logic_error);
}

TEST(Execution, SecondsToSlots) {
  EXPECT_EQ(seconds_to_slots(10.0, 5.0), 2);
  EXPECT_EQ(seconds_to_slots(10.1, 5.0), 3);
  EXPECT_EQ(seconds_to_slots(0.0, 5.0), 1);   // minimum one slot
  EXPECT_EQ(seconds_to_slots(4.9, 5.0), 1);
  EXPECT_EQ(seconds_to_slots(5.0, 5.0), 1);
  EXPECT_THROW((void)seconds_to_slots(1.0, 0.0), std::invalid_argument);
}

TEST(Execution, WorkAccrualSingleCopy) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 1);
  TaskRuntime task = make_task();
  task.copies.push_back({.server = 0, .start = 0, .finish = kNever, .active = true});
  task.work_updated_at = 0;
  accrue_work(task, phase, 4, 1.0);
  // Degenerate speedup (sigma = 0): h == 1, so 4 slots = 4 s of work.
  EXPECT_DOUBLE_EQ(task.work_done_seconds, 4.0);
  // Idempotent for non-advancing time.
  accrue_work(task, phase, 4, 1.0);
  EXPECT_DOUBLE_EQ(task.work_done_seconds, 4.0);
}

TEST(Execution, WorkAccrualWithClones) {
  // alpha = 3 -> h(2) = 1.25.
  const double sigma = 10.0 / std::sqrt(3.0);
  PhaseRuntime phase = make_phase(10.0, sigma, 1);
  TaskRuntime task = make_task();
  task.copies.push_back({.server = 0, .start = 0, .finish = kNever, .active = true});
  task.copies.push_back({.server = 1, .start = 0, .finish = kNever, .active = true});
  task.work_updated_at = 0;
  accrue_work(task, phase, 4, 1.0);
  EXPECT_NEAR(task.work_done_seconds, 4.0 * 1.25, 1e-9);
}

TEST(Execution, NoWorkWithoutCopies) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 1);
  TaskRuntime task;
  task.work_updated_at = 0;
  accrue_work(task, phase, 10, 1.0);
  EXPECT_DOUBLE_EQ(task.work_done_seconds, 0.0);
  EXPECT_EQ(predict_work_finish(task, phase, 10, 1.0), kNever);
}

TEST(Execution, PredictWorkFinish) {
  PhaseRuntime phase = make_phase(10.0, 0.0, 1);
  TaskRuntime task = make_task();
  task.copies.push_back({.server = 0, .start = 0, .finish = kNever, .active = true});
  task.work_updated_at = 0;
  EXPECT_EQ(predict_work_finish(task, phase, 0, 1.0), 10);
  task.work_done_seconds = 9.5;
  EXPECT_EQ(predict_work_finish(task, phase, 3, 1.0), 4);  // ceil(0.5/1) = 1 slot
  task.work_done_seconds = 10.0;
  EXPECT_EQ(predict_work_finish(task, phase, 5, 1.0), 5);  // already done
}

}  // namespace
}  // namespace dollymp
