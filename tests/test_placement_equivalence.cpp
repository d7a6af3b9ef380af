// Whole-run placement equivalence: the PlacementIndex against the linear
// scan it replaced.
//
// Each case (tests/placement_golden_matrix.h) must reproduce, record for
// record, the flight-recorder stream the linear-scan placement path
// produced for it — same placements, same tie-breaks, same event
// timestamps — while the live oracle (tests/placement_oracle.h) checks
// every index query against the brute-force scans after each schedule()
// call.  The cases cover every DollyMP knob, the baselines, the locality
// model and crash failures.
#include <gtest/gtest.h>

#include "dollymp/sched/drf.h"
#include "dollymp/sched/scheduler.h"
#include "placement_golden_matrix.h"
#include "placement_oracle.h"

namespace dollymp {
namespace {

using test_support::expect_matches_pinned;

// ---- DollyMP, every configuration knob -------------------------------------

TEST(PlacementEquivalence, DollyMPDefault) {
  expect_matches_pinned("equivalence/DollyMPDefault");
}

TEST(PlacementEquivalence, DollyMPNoClones) {
  expect_matches_pinned("equivalence/DollyMPNoClones");
}

TEST(PlacementEquivalence, DollyMPStragglerAware) {
  EXPECT_GT(expect_matches_pinned("equivalence/DollyMPStragglerAware").weighted_checks, 0);
}

TEST(PlacementEquivalence, DollyMPStragglerAwareTraceWorkload) {
  EXPECT_GT(
      expect_matches_pinned("equivalence/DollyMPStragglerAwareTraceWorkload").weighted_checks,
      0);
}

TEST(PlacementEquivalence, DollyMPCorollaryCloneCounts) {
  expect_matches_pinned("equivalence/DollyMPCorollaryCloneCounts");
}

TEST(PlacementEquivalence, DollyMPLargestFirstClones) {
  expect_matches_pinned("equivalence/DollyMPLargestFirstClones");
}

TEST(PlacementEquivalence, DollyMPWithLocalityModel) {
  expect_matches_pinned("equivalence/DollyMPWithLocalityModel");
}

// ---- the baseline policies -------------------------------------------------

TEST(PlacementEquivalence, Capacity) { expect_matches_pinned("equivalence/Capacity"); }

TEST(PlacementEquivalence, Drf) { expect_matches_pinned("equivalence/Drf"); }

// Tetris scores (server, candidate) pairs itself and never queries the
// index; the run must still match with index maintenance on.
TEST(PlacementEquivalence, Tetris) { expect_matches_pinned("equivalence/Tetris"); }

TEST(PlacementEquivalence, Hopper) { expect_matches_pinned("equivalence/Hopper"); }

TEST(PlacementEquivalence, Carbyne) { expect_matches_pinned("equivalence/Carbyne"); }

TEST(PlacementEquivalence, SrptWithClones) {
  expect_matches_pinned("equivalence/SrptWithClones");
}

// ---- failures and repairs --------------------------------------------------

TEST(PlacementEquivalence, DollyMPWithFailures) {
  expect_matches_pinned("equivalence/DollyMPWithFailures");
}

TEST(PlacementEquivalence, CapacityWithFailures) {
  expect_matches_pinned("equivalence/CapacityWithFailures");
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
      simulate(Cluster::paper30(), placement_golden::base_config(51),
               placement_golden::straggler_workload(51), probe);
  EXPECT_GT(result.total_tasks_completed, 0);
}

}  // namespace
}  // namespace dollymp
