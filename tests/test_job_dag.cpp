#include <gtest/gtest.h>

#include <limits>

#include "dollymp/job/dag.h"
#include "dollymp/job/effective.h"
#include "dollymp/job/job.h"

namespace dollymp {
namespace {

// A diamond DAG:        0
//                      / \
//                     1   2
//                      \ /
//                       3
JobSpec diamond_job() {
  JobSpec job;
  job.id = 1;
  job.name = "diamond";
  PhaseSpec a{"a", 4, {1, 2}, 10.0, 2.0, {}};
  PhaseSpec b{"b", 2, {2, 4}, 20.0, 4.0, {0}};
  PhaseSpec c{"c", 3, {1, 1}, 5.0, 0.0, {0}};
  PhaseSpec d{"d", 1, {1, 2}, 8.0, 1.0, {1, 2}};
  job.phases = {a, b, c, d};
  return job;
}

TEST(JobSpec, ValidateAcceptsDiamond) { EXPECT_NO_THROW(diamond_job().validate()); }

TEST(JobSpec, ValidateRejectsEmpty) {
  JobSpec job;
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobSpec, ValidateRejectsBadPhase) {
  JobSpec job = JobSpec::single_task(1, {1, 1}, 10.0);
  job.phases[0].task_count = 0;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = JobSpec::single_task(1, {1, 1}, 10.0);
  job.phases[0].theta_seconds = 0.0;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = JobSpec::single_task(1, {1, 1}, 10.0);
  job.phases[0].sigma_seconds = -1.0;
  EXPECT_THROW(job.validate(), std::invalid_argument);

  job = JobSpec::single_task(1, {0, 0}, 10.0);
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobSpec, ValidateRejectsNonFiniteFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    JobSpec job = JobSpec::single_task(1, {1, 1}, 10.0, 1.0);
    job.arrival_seconds = bad;
    EXPECT_THROW(job.validate(), std::invalid_argument) << "arrival " << bad;

    job = JobSpec::single_task(1, {1, 1}, 10.0, 1.0);
    job.phases[0].theta_seconds = bad;
    EXPECT_THROW(job.validate(), std::invalid_argument) << "theta " << bad;

    job = JobSpec::single_task(1, {1, 1}, 10.0, 1.0);
    job.phases[0].sigma_seconds = bad;
    EXPECT_THROW(job.validate(), std::invalid_argument) << "sigma " << bad;

    job = JobSpec::single_task(1, {1, bad}, 10.0, 1.0);
    EXPECT_THROW(job.validate(), std::invalid_argument) << "demand " << bad;
  }
}

TEST(JobSpec, ValidateRejectsBadParents) {
  JobSpec job = diamond_job();
  job.phases[1].parents = {5};
  EXPECT_THROW(job.validate(), std::invalid_argument);
  // Forward reference (cycle-equivalent under topological storage).
  job = diamond_job();
  job.phases[1].parents = {2};
  EXPECT_THROW(job.validate(), std::invalid_argument);
  job = diamond_job();
  job.phases[0].parents = {0};
  EXPECT_THROW(job.validate(), std::invalid_argument);
}

TEST(JobSpec, TotalTasksAndHelpers) {
  EXPECT_EQ(diamond_job().total_tasks(), 10);
  const JobSpec single = JobSpec::single_task(7, {2, 4}, 30.0, 3.0, 100.0);
  EXPECT_EQ(single.total_tasks(), 1);
  EXPECT_DOUBLE_EQ(single.arrival_seconds, 100.0);
  EXPECT_EQ(single.phases.size(), 1u);
  const JobSpec multi = JobSpec::single_phase(8, 5, {1, 1}, 10.0);
  EXPECT_EQ(multi.total_tasks(), 5);
}

TEST(PhaseSpec, EffectiveLength) {
  PhaseSpec p{"p", 1, {1, 1}, 10.0, 4.0, {}};
  EXPECT_DOUBLE_EQ(p.effective_length(1.5), 16.0);
  EXPECT_DOUBLE_EQ(p.effective_length(0.0), 10.0);
}

TEST(Dag, ChildrenAndTerminalsAndSources) {
  const JobSpec job = diamond_job();
  const auto children = phase_children(job);
  ASSERT_EQ(children.size(), 4u);
  EXPECT_EQ(children[0], (std::vector<PhaseIndex>{1, 2}));
  EXPECT_EQ(children[1], (std::vector<PhaseIndex>{3}));
  EXPECT_EQ(children[3], (std::vector<PhaseIndex>{}));
  EXPECT_EQ(terminal_phases(job), (std::vector<PhaseIndex>{3}));
  EXPECT_EQ(source_phases(job), (std::vector<PhaseIndex>{0}));
}

TEST(Dag, CriticalPathLength) {
  const JobSpec job = diamond_job();
  // r=0: path a(10) -> b(20) -> d(8) = 38 beats a -> c -> d = 23.
  EXPECT_DOUBLE_EQ(critical_path_length(job, 0.0), 38.0);
  // r=1.5: a=13, b=26, c=5, d=9.5 -> 48.5.
  EXPECT_DOUBLE_EQ(critical_path_length(job, 1.5), 48.5);
}

TEST(Dag, CriticalPathNodes) {
  const JobSpec job = diamond_job();
  EXPECT_EQ(critical_path(job, 0.0), (std::vector<PhaseIndex>{0, 1, 3}));
}

TEST(Dag, RemainingCriticalPath) {
  const JobSpec job = diamond_job();
  // Phase 0 finished: longest remaining chain is b -> d = 28 (r=0).
  EXPECT_DOUBLE_EQ(remaining_critical_path_length(job, {true, false, false, false}, 0.0),
                   28.0);
  // Phases 0 and 1 finished: c -> d? No — c depends only on 0; chain becomes
  // max(c=5, d=8) along c->d = 13.
  EXPECT_DOUBLE_EQ(
      remaining_critical_path_length(job, {true, true, false, false}, 0.0), 13.0);
  // Everything finished: zero.
  EXPECT_DOUBLE_EQ(remaining_critical_path_length(job, {true, true, true, true}, 0.0),
                   0.0);
}

TEST(Effective, PhaseDominantShare) {
  PhaseSpec p{"p", 1, {10, 20}, 10.0, 0.0, {}};
  // cpu share 10/100 = 0.1, mem share 20/400 = 0.05 -> 0.1.
  EXPECT_DOUBLE_EQ(phase_dominant_share(p, {100, 400}), 0.1);
}

TEST(Effective, JobEffectiveVolumeEq14) {
  const JobSpec job = diamond_job();
  const Resources total{100, 100};
  // v = sum n * e * d with r = 0:
  //  a: 4 * 10 * max(1/100, 2/100)=0.02 -> 0.8
  //  b: 2 * 20 * 0.04 -> 1.6
  //  c: 3 * 5 * 0.01 -> 0.15
  //  d: 1 * 8 * 0.02 -> 0.16
  EXPECT_NEAR(job_effective_volume(job, total, 0.0), 0.8 + 1.6 + 0.15 + 0.16, 1e-12);
}

TEST(Effective, JobEffectiveLengthMatchesCriticalPath) {
  const JobSpec job = diamond_job();
  EXPECT_DOUBLE_EQ(job_effective_length(job, 1.5), critical_path_length(job, 1.5));
}

TEST(Effective, RemainingVolumeEq16) {
  const JobSpec job = diamond_job();
  const Resources total{100, 100};
  JobProgress progress;
  progress.remaining_tasks = {0, 1, 3, 1};  // phase a done, b half done
  progress.phase_finished = {true, false, false, false};
  // v(t) = 0 + 1*20*0.04 + 3*5*0.01 + 1*8*0.02 = 0.8 + 0.15 + 0.16.
  EXPECT_NEAR(job_effective_volume_remaining(job, progress, total, 0.0),
              0.8 + 0.15 + 0.16, 1e-12);
  EXPECT_DOUBLE_EQ(job_effective_length_remaining(job, progress, 0.0), 28.0);
}

TEST(Effective, ProgressValidation) {
  const JobSpec job = diamond_job();
  JobProgress bad;
  bad.remaining_tasks = {1, 1};  // wrong size
  bad.phase_finished = {false, false};
  EXPECT_THROW(job_effective_volume_remaining(job, bad, {10, 10}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(job_effective_length_remaining(job, bad, 0.0), std::invalid_argument);

  JobProgress out_of_range;
  out_of_range.remaining_tasks = {99, 0, 0, 0};
  out_of_range.phase_finished = {false, false, false, false};
  EXPECT_THROW(job_effective_volume_remaining(job, out_of_range, {10, 10}, 0.0),
               std::invalid_argument);
}

TEST(Dag, ChainJobCriticalPathIsSum) {
  JobSpec job;
  job.id = 2;
  for (int k = 0; k < 5; ++k) {
    PhaseSpec p{"p" + std::to_string(k), 2, {1, 1}, 10.0, 0.0, {}};
    if (k > 0) p.parents = {static_cast<PhaseIndex>(k - 1)};
    job.phases.push_back(p);
  }
  job.validate();
  EXPECT_DOUBLE_EQ(critical_path_length(job, 0.0), 50.0);
  EXPECT_EQ(critical_path(job, 0.0).size(), 5u);
}

}  // namespace
}  // namespace dollymp
