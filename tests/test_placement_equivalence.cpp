// Paired-seed equivalence tests for the incremental placement index.
//
// The tentpole contract: with config.use_placement_index flipped and
// nothing else changed, every policy must make bit-identical decisions —
// same job records, same flight-recorder stream — because the index
// answers every placement query with exactly the server the linear scan
// would have picked (same float score expression, same lowest-id
// tie-break).  These
// tests mirror the control-plane refactor's paired-polling pattern: run
// the same seed twice, indexed vs linear, and diff everything.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "dollymp/obs/replay.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"
#include "recorded_run.h"

namespace dollymp {
namespace {

SimConfig base_config(std::uint64_t seed = 1) {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

void expect_identical_outcomes(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRecord& ja = a.jobs[i];
    const JobRecord& jb = b.jobs[i];
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.arrival_seconds, jb.arrival_seconds);
    EXPECT_EQ(ja.first_start_seconds, jb.first_start_seconds) << "job " << ja.id;
    EXPECT_EQ(ja.finish_seconds, jb.finish_seconds) << "job " << ja.id;
    EXPECT_EQ(ja.clones_launched, jb.clones_launched) << "job " << ja.id;
    EXPECT_EQ(ja.speculative_launched, jb.speculative_launched) << "job " << ja.id;
    EXPECT_EQ(ja.tasks_with_clones, jb.tasks_with_clones) << "job " << ja.id;
    EXPECT_EQ(ja.resource_seconds, jb.resource_seconds) << "job " << ja.id;
  }
  EXPECT_EQ(a.total_copies_launched, b.total_copies_launched);
  EXPECT_EQ(a.total_tasks_completed, b.total_tasks_completed);
}

std::vector<JobSpec> straggler_workload(std::uint64_t seed, int count = 8) {
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 1}, 20.0, 30.0));
  }
  assign_poisson_arrivals(jobs, 15.0, seed + 100);
  return jobs;
}

std::vector<JobSpec> trace_workload(int count, std::uint64_t seed) {
  TraceModelConfig model_config;
  model_config.max_tasks_per_phase = 40;
  TraceModel model(model_config, seed);
  auto jobs = model.sample_jobs(count);
  assign_poisson_arrivals(jobs, 8.0, seed + 1);
  return jobs;
}

/// Run the same (cluster, config, jobs, scheduler) pair with the index on
/// and off and require bit-identical outcomes.  The counters double as a
/// sanity check that the indexed run actually exercised the index.
void expect_index_equivalence(const Cluster& cluster, const SimConfig& config,
                              const std::vector<JobSpec>& jobs,
                              const std::function<std::unique_ptr<Scheduler>()>& make,
                              bool expect_queries = true) {
  SimConfig fast_config = config;
  fast_config.use_placement_index = true;
  SimConfig slow_config = config;
  slow_config.use_placement_index = false;

  const auto fast_sched = make();
  const auto slow_sched = make();
  const auto fast =
      test_support::simulate_recorded(cluster, fast_config, jobs, *fast_sched);
  const auto slow =
      test_support::simulate_recorded(cluster, slow_config, jobs, *slow_sched);

  expect_identical_outcomes(fast.result, slow.result);
  const DivergenceReport report = compare_streams(fast.stream, slow.stream);
  EXPECT_TRUE(report.identical) << report.to_string();
  if (expect_queries) {
    EXPECT_GT(fast.result.stats.index_queries, 0)
        << "indexed run never queried the index";
  }
  EXPECT_EQ(slow.result.stats.index_queries, 0)
      << "linear run must not touch the index";
}

std::function<std::unique_ptr<Scheduler>()> dollymp_factory(DollyMPConfig config) {
  return [config] { return std::make_unique<DollyMPScheduler>(config); };
}

// ---- DollyMP, every configuration knob -------------------------------------

TEST(PlacementEquivalence, DollyMPDefault) {
  expect_index_equivalence(Cluster::paper30(), base_config(11), straggler_workload(11),
                           dollymp_factory({}));
}

TEST(PlacementEquivalence, DollyMPNoClones) {
  DollyMPConfig config;
  config.clone_budget = 0;
  expect_index_equivalence(Cluster::paper30(), base_config(12), straggler_workload(12),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPStragglerAware) {
  DollyMPConfig config;
  config.straggler_aware = true;
  expect_index_equivalence(Cluster::paper30(), base_config(13), straggler_workload(13),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPStragglerAwareTraceWorkload) {
  DollyMPConfig config;
  config.straggler_aware = true;
  SimConfig sim = base_config(21);
  sim.slot_seconds = 5.0;
  expect_index_equivalence(Cluster::google_like(60), sim, trace_workload(24, 21),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPCorollaryCloneCounts) {
  DollyMPConfig config;
  config.corollary_clone_counts = true;
  config.recompute_on_completion = true;
  expect_index_equivalence(Cluster::paper30(), base_config(14), straggler_workload(14, 12),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPLocalityOff) {
  DollyMPConfig config;
  config.locality_aware = false;
  expect_index_equivalence(Cluster::paper30(), base_config(15), straggler_workload(15),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPLargestFirstClones) {
  DollyMPConfig config;
  config.smallest_first_clones = false;
  expect_index_equivalence(Cluster::paper30(), base_config(16), straggler_workload(16),
                           dollymp_factory(config));
}

TEST(PlacementEquivalence, DollyMPWithLocalityModel) {
  // Heavy enough that replicas saturate and placement falls through to the
  // indexed best-fit (a light load is absorbed entirely by the replica
  // fast path and never queries).
  SimConfig sim = base_config(17);
  sim.locality.enabled = true;
  sim.slot_seconds = 5.0;
  expect_index_equivalence(Cluster::google_like(60), sim, trace_workload(80, 17),
                           dollymp_factory({}));
}

// ---- the baseline policies -------------------------------------------------

TEST(PlacementEquivalence, Capacity) {
  expect_index_equivalence(Cluster::paper30(), base_config(31), straggler_workload(31),
                           [] { return std::make_unique<CapacityScheduler>(); });
}

TEST(PlacementEquivalence, Drf) {
  expect_index_equivalence(Cluster::paper30(), base_config(32), straggler_workload(32),
                           [] { return std::make_unique<DrfScheduler>(); });
}

TEST(PlacementEquivalence, Tetris) {
  // Tetris scores (server, candidate) pairs itself, so it never queries
  // the index — the run must still be bit-identical with maintenance on.
  expect_index_equivalence(
      Cluster::paper30(), base_config(33), straggler_workload(33),
      [] { return std::make_unique<TetrisScheduler>(); }, /*expect_queries=*/false);
}

TEST(PlacementEquivalence, Hopper) {
  expect_index_equivalence(Cluster::paper30(), base_config(34), straggler_workload(34),
                           [] { return std::make_unique<HopperScheduler>(); });
}

TEST(PlacementEquivalence, Carbyne) {
  expect_index_equivalence(Cluster::paper30(), base_config(35), straggler_workload(35),
                           [] { return std::make_unique<CarbyneScheduler>(); });
}

TEST(PlacementEquivalence, SrptWithClones) {
  SimplePriorityConfig config;
  config.clone_budget = 2;
  expect_index_equivalence(Cluster::paper30(), base_config(36), straggler_workload(36),
                           [config] { return std::make_unique<SimplePriorityScheduler>(config); });
}

// ---- failures and repairs --------------------------------------------------

TEST(PlacementEquivalence, DollyMPWithFailures) {
  SimConfig sim = base_config(41);
  sim.slot_seconds = 5.0;
  sim.failures.enabled = true;
  sim.failures.mean_time_to_failure_seconds = 300.0;
  sim.failures.mean_repair_seconds = 60.0;
  expect_index_equivalence(Cluster::google_like(40), sim, trace_workload(20, 41),
                           dollymp_factory({}));
}

TEST(PlacementEquivalence, CapacityWithFailures) {
  SimConfig sim = base_config(42);
  sim.slot_seconds = 5.0;
  sim.failures.enabled = true;
  sim.failures.mean_time_to_failure_seconds = 300.0;
  sim.failures.mean_repair_seconds = 60.0;
  expect_index_equivalence(Cluster::google_like(40), sim, trace_workload(20, 42),
                           [] { return std::make_unique<CapacityScheduler>(); });
}

// ---- allocation read paths -------------------------------------------------

// The O(#phases) job_active_allocation must agree with the per-copy scan
// at every scheduling decision, not just in hand-built fixtures: probe it
// live from inside a DRF run (DRF reads the allocation on every offer).
class AllocationProbeScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "alloc-probe"; }
  void schedule(SchedulerContext& ctx) override {
    for (JobRuntime* job : ctx.active_jobs()) {
      EXPECT_EQ(job_active_allocation(*job), job_active_allocation_scan(*job))
          << "job " << job->id;
    }
    inner_.schedule(ctx);
    for (JobRuntime* job : ctx.active_jobs()) {
      EXPECT_EQ(job_active_allocation(*job), job_active_allocation_scan(*job))
          << "job " << job->id;
    }
  }

 private:
  DrfScheduler inner_;
};

TEST(PlacementEquivalence, ActiveAllocationMatchesScanThroughoutRun) {
  AllocationProbeScheduler probe;
  const SimResult result =
      simulate(Cluster::paper30(), base_config(51), straggler_workload(51), probe);
  EXPECT_GT(result.total_tasks_completed, 0);
}

}  // namespace
}  // namespace dollymp
