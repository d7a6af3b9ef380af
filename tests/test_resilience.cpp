// Resilience policy layer: retry backoff, server quarantine with probation,
// graceful clone degradation — unit tests against a minimal fake context
// plus end-to-end runs under fault injection, including the randomized
// index-vs-linear fuzz while quarantine churns candidacy.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/state_io.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/resilience.h"
#include "dollymp/sim/simulator.h"
#include "placement_oracle.h"

namespace dollymp {
namespace {

/// Minimal SchedulerContext for driving ResiliencePolicy directly: time is
/// settable, quarantine/wakeup/retry calls are recorded, nothing places.
class FakeResilienceContext final : public SchedulerContext {
 public:
  explicit FakeResilienceContext(Cluster cluster) : cluster_(std::move(cluster)) {
    quarantined_.assign(cluster_.size(), false);
  }

  SimTime now_value = 0;

  [[nodiscard]] SimTime now() const override { return now_value; }
  [[nodiscard]] double slot_seconds() const override { return 1.0; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const SimConfig& config() const override { return config_; }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override { return active_; }
  bool place_copy(JobRuntime&, PhaseRuntime&, TaskRuntime&, ServerId) override {
    return false;
  }
  bool place_speculative_copy(JobRuntime&, PhaseRuntime&, TaskRuntime&,
                              ServerId) override {
    return false;
  }
  void request_wakeup(SimTime slot) override { last_wakeup = slot; }
  [[nodiscard]] Rng& policy_rng() override { return rng_; }
  [[nodiscard]] PlacementIndex* placement_index() override { return &index_; }

  void set_server_quarantined(ServerId server, bool quarantined) override {
    quarantined_[static_cast<std::size_t>(server)] = quarantined;
    quarantine_calls.emplace_back(server, quarantined);
  }
  void defer_retry(SimTime release_slot) override {
    deferred = true;
    last_wakeup = release_slot;
  }
  void note_retry_issued(long long backoff_slots) override {
    ++retries;
    last_backoff = backoff_slots;
  }

  [[nodiscard]] bool quarantined(ServerId server) const {
    return quarantined_[static_cast<std::size_t>(server)];
  }

  /// Every set_server_quarantined call, in order.
  std::vector<std::pair<ServerId, bool>> quarantine_calls;
  SimTime last_wakeup = kNever;
  long long last_backoff = -1;
  int retries = 0;
  bool deferred = false;

 private:
  Cluster cluster_;
  PlacementIndex index_{cluster_};
  SimConfig config_;
  std::vector<JobRuntime*> active_;
  std::vector<bool> quarantined_;
  Rng rng_{1};
};

ResilienceConfig enabled_config() {
  ResilienceConfig config;
  config.enabled = true;
  return config;
}

TaskRuntime orphan_task() {
  TaskRuntime task;
  task.ref = TaskRef{0, 0, 0};
  return task;  // no copies, not finished: needs_placement() is true
}

// ---- retry backoff ----------------------------------------------------------

TEST(Resilience, BackoffDoublesUpToBudgetThenSaturates) {
  FakeResilienceContext ctx(Cluster::uniform(8, {8, 16}));
  ResilienceConfig config = enabled_config();
  config.quarantine = false;
  ResiliencePolicy policy(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  // initial=2, budget=4: holds go 2,4,8,16,32 and then stay saturated.
  const long long expected[] = {2, 4, 8, 16, 32, 32, 32};
  for (const long long hold : expected) {
    policy.on_copy_fault(ctx, task, 0);
    EXPECT_EQ(ctx.last_backoff, hold);
  }
  EXPECT_EQ(ctx.retries, 7);
}

TEST(Resilience, ShouldDeferUntilReleaseSlot) {
  FakeResilienceContext ctx(Cluster::uniform(4, {8, 16}));
  ResiliencePolicy policy(enabled_config(), ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  ctx.now_value = 10;
  policy.on_copy_fault(ctx, task, 1);  // hold = 2 slots, release = 12
  EXPECT_TRUE(policy.should_defer(task, 10));
  EXPECT_TRUE(policy.should_defer(task, 11));
  EXPECT_FALSE(policy.should_defer(task, 12));

  // finish_invocation surfaces the earliest pending release as a deferral.
  ASSERT_TRUE(policy.should_defer(task, 10));
  policy.finish_invocation(ctx);
  EXPECT_TRUE(ctx.deferred);
  EXPECT_EQ(ctx.last_wakeup, 12);
}

TEST(Resilience, RunningTaskGetsNoBackoff) {
  FakeResilienceContext ctx(Cluster::uniform(4, {8, 16}));
  ResiliencePolicy policy(enabled_config(), ctx.cluster().size());
  static CopySlab slab;  // backing storage for the hand-built copy list
  TaskRuntime task = orphan_task();
  task.copies.bind(&slab);
  CopyRuntime copy;
  copy.active = true;
  task.copies.push_back(copy);  // a surviving copy: not orphaned
  policy.on_copy_fault(ctx, task, 0);
  EXPECT_EQ(ctx.retries, 0);
  EXPECT_FALSE(policy.should_defer(task, 0));
}

// ---- quarantine -------------------------------------------------------------

TEST(Resilience, QuarantinesAtStrikeThreshold) {
  FakeResilienceContext ctx(Cluster::uniform(10, {8, 16}));
  ResiliencePolicy policy(enabled_config(), ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  policy.on_copy_fault(ctx, task, 3);
  policy.on_copy_fault(ctx, task, 3);
  EXPECT_FALSE(policy.is_quarantined(3));
  policy.on_copy_fault(ctx, task, 3);  // third strike crosses flap_threshold=3
  EXPECT_TRUE(policy.is_quarantined(3));
  EXPECT_TRUE(ctx.quarantined(3));
  EXPECT_EQ(policy.quarantined_count(), 1);
}

TEST(Resilience, FleetFractionCapLimitsQuarantine) {
  FakeResilienceContext ctx(Cluster::uniform(5, {8, 16}));
  ResilienceConfig config = enabled_config();
  config.max_quarantined_fraction = 0.2;  // 1 of 5 servers at most
  ResiliencePolicy policy(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  for (int i = 0; i < 3; ++i) policy.on_copy_fault(ctx, task, 0);
  for (int i = 0; i < 3; ++i) policy.on_copy_fault(ctx, task, 1);
  EXPECT_TRUE(policy.is_quarantined(0));
  EXPECT_FALSE(policy.is_quarantined(1)) << "cap must keep server 1 in service";
  EXPECT_EQ(policy.quarantined_count(), 1);
}

TEST(Resilience, ProbationReleasesWithHalvedStrikes) {
  FakeResilienceContext ctx(Cluster::uniform(10, {8, 16}));
  ResilienceConfig config = enabled_config();
  config.strike_half_life_slots = 1e12;  // freeze decay for the arithmetic
  ResiliencePolicy policy(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  for (int i = 0; i < 3; ++i) policy.on_copy_fault(ctx, task, 2);
  ASSERT_TRUE(policy.is_quarantined(2));
  // The wakeup registered at quarantine time targets the release slot.
  EXPECT_EQ(ctx.last_wakeup, config.quarantine_slots);

  // Before the term ends nothing is released.
  ctx.now_value = config.quarantine_slots - 1;
  policy.begin_invocation(ctx);
  EXPECT_TRUE(policy.is_quarantined(2));

  ctx.now_value = config.quarantine_slots;
  policy.begin_invocation(ctx);
  EXPECT_FALSE(policy.is_quarantined(2));
  EXPECT_FALSE(ctx.quarantined(2));
  EXPECT_EQ(policy.quarantined_count(), 0);
  EXPECT_NEAR(policy.strikes(2), 1.5, 1e-9);  // probation: half of 3

  // A prompt re-offense re-quarantines after fewer new strikes.
  policy.on_copy_fault(ctx, task, 2);
  policy.on_copy_fault(ctx, task, 2);
  EXPECT_TRUE(policy.is_quarantined(2));
}

// Three terms come due in one invocation, in the reverse order of their
// server ids: the releases must still reach the context in ascending id,
// the order of a scan over the fleet.
TEST(Resilience, DueTermsReleaseInAscendingServerOrder) {
  FakeResilienceContext ctx(Cluster::uniform(20, {8, 16}));  // room under the 20% cap
  ResilienceConfig config = enabled_config();
  config.strike_half_life_slots = 1e12;
  ResiliencePolicy policy(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();
  const ServerId order[] = {7, 4, 2};  // term starts 0, 5, 10
  for (const ServerId server : order) {
    for (int i = 0; i < 3; ++i) policy.on_copy_fault(ctx, task, server);
    ASSERT_TRUE(policy.is_quarantined(server));
    ctx.now_value += 5;
  }
  ctx.quarantine_calls.clear();
  ctx.now_value = config.quarantine_slots + 10;  // all three due
  policy.begin_invocation(ctx);
  const std::vector<std::pair<ServerId, bool>> expected = {
      {2, false}, {4, false}, {7, false}};
  EXPECT_EQ(ctx.quarantine_calls, expected);
  EXPECT_EQ(policy.quarantined_count(), 0);
}

// A snapshot taken in the middle of two terms: the restored policy releases
// each server at the same slot as the live one, and re-saves to the same
// bytes (the release heap is derived state, not serialized).
TEST(Resilience, SaveLoadMidTermReleasesAtTheSameSlot) {
  FakeResilienceContext ctx(Cluster::uniform(10, {8, 16}));
  ResilienceConfig config = enabled_config();
  config.strike_half_life_slots = 1e12;
  ResiliencePolicy live(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();
  for (int i = 0; i < 3; ++i) live.on_copy_fault(ctx, task, 3);  // releases at 240
  ctx.now_value = 20;
  for (int i = 0; i < 3; ++i) live.on_copy_fault(ctx, task, 1);  // releases at 260
  ctx.now_value = 100;
  live.begin_invocation(ctx);

  StateWriter w;
  live.save_state(w);
  const std::vector<std::uint8_t> bytes = w.finish();
  ResiliencePolicy restored(config, ctx.cluster().size());
  StateReader r(bytes);
  restored.load_state(r);
  EXPECT_NO_THROW(r.expect_done());
  StateWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.finish(), bytes);

  const SimTime release_3 = config.quarantine_slots;
  const SimTime release_1 = 20 + config.quarantine_slots;
  for (const SimTime now : {release_3 - 1, release_3, release_1 - 1, release_1}) {
    ctx.now_value = now;
    live.begin_invocation(ctx);
    restored.begin_invocation(ctx);
    for (const ServerId server : {1, 3}) {
      EXPECT_EQ(restored.is_quarantined(server), live.is_quarantined(server))
          << "server " << server << " at slot " << now;
    }
  }
  EXPECT_FALSE(restored.is_quarantined(3));
  EXPECT_FALSE(restored.is_quarantined(1));
  EXPECT_EQ(restored.quarantined_count(), 0);
  EXPECT_NEAR(restored.strikes(1), live.strikes(1), 1e-12);
}

TEST(Resilience, StrikesDecayWithHalfLife) {
  FakeResilienceContext ctx(Cluster::uniform(4, {8, 16}));
  ResilienceConfig config = enabled_config();
  config.quarantine = false;
  config.strike_half_life_slots = 100.0;
  ResiliencePolicy policy(config, ctx.cluster().size());
  const TaskRuntime task = orphan_task();

  policy.on_copy_fault(ctx, task, 0);
  EXPECT_NEAR(policy.strikes(0), 1.0, 1e-9);
  ctx.now_value = 100;  // one half-life later
  policy.on_copy_fault(ctx, task, 0);
  EXPECT_NEAR(policy.strikes(0), 1.5, 1e-9);
}

// ---- graceful clone degradation ---------------------------------------------

TEST(Resilience, CloneBudgetShrinksBelowWatermark) {
  FakeResilienceContext ctx(Cluster::uniform(10, {8, 16}));
  ResiliencePolicy policy(enabled_config(), ctx.cluster().size());

  EXPECT_EQ(policy.degraded_clone_budget(ctx, 2), 2) << "healthy fleet keeps budget";
  // 4 of 10 down: live fraction 0.6 < watermark 0.75.
  for (ServerId s = 0; s < 4; ++s) policy.on_server_failed(ctx, s);
  EXPECT_EQ(policy.down_count(), 4);
  EXPECT_EQ(policy.degraded_clone_budget(ctx, 2), 1);  // floor(2 * 0.6/0.75)
  // Everything down: no clones at all.
  for (ServerId s = 4; s < 10; ++s) policy.on_server_failed(ctx, s);
  EXPECT_EQ(policy.degraded_clone_budget(ctx, 2), 0);
  // Repairs restore the budget.
  for (ServerId s = 0; s < 10; ++s) policy.on_server_repaired(ctx, s);
  EXPECT_EQ(policy.degraded_clone_budget(ctx, 2), 2);
}

// ---- end-to-end under fault injection ---------------------------------------

std::vector<JobSpec> workload(int count) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 5, {2, 4}, 40.0, 20.0, i * 15.0));
  }
  return jobs;
}

SimConfig faulty_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 45.0;
  return config;
}

DollyMPConfig resilient_config() {
  DollyMPConfig config;
  config.resilience.enabled = true;
  return config;
}

TEST(ResilienceEndToEnd, BackoffStatsSurfaceInSimStats) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  DollyMPScheduler scheduler(resilient_config());
  const SimResult result = simulate(cluster, faulty_config(1), workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
  EXPECT_GT(result.stats.copies_killed_by_faults, 0);
  EXPECT_GT(result.stats.retries_issued, 0);
  EXPECT_GT(result.stats.backoff_slots_waited, 0);
  EXPECT_EQ(result.total_copies_launched,
            result.stats.copies_finished + result.stats.copies_killed);
}

TEST(ResilienceEndToEnd, QuarantineStatsSurfaceInSimStats) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  SimConfig config = faulty_config(2);
  config.faults.copy.inter_fault.mean_seconds = 20.0;  // heavy fault pressure
  DollyMPConfig sched_config = resilient_config();
  sched_config.resilience.flap_threshold = 2.0;
  // Short terms so quarantines both start and expire within the run.
  sched_config.resilience.quarantine_slots = 8;
  DollyMPScheduler scheduler(sched_config);
  const SimResult result = simulate(cluster, config, workload(30), scheduler);
  ASSERT_EQ(result.jobs.size(), 30u);
  EXPECT_GT(result.stats.servers_quarantined, 0);
  EXPECT_GT(result.stats.quarantine_exits, 0);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
}

TEST(ResilienceEndToEnd, DeterministicGivenSeed) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  const auto jobs = workload(15);
  DollyMPScheduler s1(resilient_config());
  DollyMPScheduler s2(resilient_config());
  const SimResult a = simulate(cluster, faulty_config(3), jobs, s1);
  const SimResult b = simulate(cluster, faulty_config(3), jobs, s2);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
  }
  EXPECT_EQ(a.stats.retries_issued, b.stats.retries_issued);
  EXPECT_EQ(a.stats.servers_quarantined, b.stats.servers_quarantined);
}

// ---- index-vs-linear fuzz under quarantine churn ----------------------------

TEST(ResilienceFuzz, IndexMatchesLinearWhileQuarantineChurns) {
  // Randomized sweep: random workload shape + crash and copy faults + an
  // aggressive quarantine policy.  The index's candidacy set churns on
  // every quarantine enter/exit; any missed update shows up as a query
  // that disagrees with the brute-force scan, or as a placement that
  // diverges from the stream the linear scan recorded.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    test_support::expect_matches_pinned("resilience/seed" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace dollymp
