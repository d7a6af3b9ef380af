// Tests for the event/timer-driven simulator control plane.
//
// The refactor's contract: the simulator visits exactly the slots where an
// event lands (arrival, completion, failure, repair) or a scheduler
// requested a wakeup, and fast-forwards across everything else.  The
// paired-polling tests reconstruct the old every-slot stepping with an
// adapter that requests a wakeup each slot, and assert the event-driven
// path makes bit-identical decisions while invoking the scheduler far
// less often.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dollymp/metrics/report.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
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

// ---- every-slot polling adapter -------------------------------------------
//
// Reproduces the seed's `wants_every_slot()` semantics on top of
// request_wakeup: after each invocation it asks to be woken at the next
// slot, so as long as any job is active the simulator visits every slot —
// exactly the old polling loop.  Wrapping a policy in this adapter is the
// "before" side of the paired refactor tests.
class EverySlotAdapter final : public Scheduler {
 public:
  explicit EverySlotAdapter(std::unique_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void on_job_arrival(SchedulerContext& ctx) override { inner_->on_job_arrival(ctx); }
  void schedule(SchedulerContext& ctx) override {
    inner_->schedule(ctx);
    ctx.request_wakeup(ctx.now() + 1);
  }
  void on_copy_finished(SchedulerContext& ctx, const JobRuntime& job,
                        const PhaseRuntime& phase, const TaskRuntime& task,
                        const CopyRuntime& copy) override {
    inner_->on_copy_finished(ctx, job, phase, task, copy);
  }
  void on_phase_completed(SchedulerContext& ctx, const JobRuntime& job,
                          const PhaseRuntime& phase) override {
    inner_->on_phase_completed(ctx, job, phase);
  }
  void on_job_completed(SchedulerContext& ctx, const JobRuntime& job) override {
    inner_->on_job_completed(ctx, job);
  }
  void on_server_failed(SchedulerContext& ctx, ServerId server) override {
    inner_->on_server_failed(ctx, server);
  }
  void on_server_repaired(SchedulerContext& ctx, ServerId server) override {
    inner_->on_server_repaired(ctx, server);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

// Greedy FIFO placement plus a programmable wakeup, recording every
// invocation slot.
class WakeupProbe final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "wakeup-probe"; }
  void schedule(SchedulerContext& ctx) override {
    invocations.push_back(ctx.now());
    for (JobRuntime* job : ctx.active_jobs()) place_job_greedy(ctx, *job);
    if (on_schedule) on_schedule(ctx);
  }

  std::vector<SimTime> invocations;
  std::function<void(SchedulerContext&)> on_schedule;
};

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

/// Run the event-driven policy and its every-slot polled twin and require
/// identical job records and identical simulation events (every arrival,
/// placement, kill, completion, crash and repair at the same slot on the
/// same server).  The polled run adds invocation, wakeup and timer records,
/// so only the simulation-event kinds are compared.  Returns the
/// event-driven run's result.
SimResult expect_polling_equivalent(const Cluster& cluster, const SimConfig& config,
                                    const std::vector<JobSpec>& jobs,
                                    Scheduler& event_driven, Scheduler& polled) {
  const auto fast = test_support::simulate_recorded(cluster, config, jobs, event_driven);
  const auto slow = test_support::simulate_recorded(cluster, config, jobs, polled);
  expect_identical_outcomes(fast.result, slow.result);
  const DivergenceReport report =
      compare_streams(test_support::simulation_events(fast.stream),
                      test_support::simulation_events(slow.stream));
  EXPECT_TRUE(report.identical) << report.to_string();
  return fast.result;
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

// ---- timer semantics -------------------------------------------------------

TEST(ControlPlane, TimerFiresExactlyOnceAtRequestedSlot) {
  // One deterministic task running for 50 slots; a single wakeup requested
  // for slot 7.  The scheduler must be invoked at exactly {0, 7}: arrival,
  // then the timer — the completion slot empties the active set before the
  // scheduling step, and no other slot may be visited with an invocation.
  const Cluster cluster = Cluster::single({1, 1});
  SimConfig config = base_config();
  config.model = ExecutionModel::kWorkBased;
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 50.0, 0.0)};

  WakeupProbe probe;
  probe.on_schedule = [](SchedulerContext& ctx) {
    if (ctx.now() == 0) ctx.request_wakeup(7);
  };
  const SimResult result = simulate(cluster, config, jobs, probe);

  ASSERT_EQ(probe.invocations.size(), 2u);
  EXPECT_EQ(probe.invocations[0], 0);
  EXPECT_EQ(probe.invocations[1], 7);
  EXPECT_EQ(result.stats.timer_wakeups_requested, 1);
  EXPECT_EQ(result.stats.events_timer, 1);
  EXPECT_EQ(result.stats.scheduler_invocations, 2);
}

TEST(ControlPlane, PastAndDuplicateWakeupsClampAndMerge) {
  // Requests for now() and for the past clamp to now() + 1, and duplicate
  // requests for the same slot merge into one timer event.
  const Cluster cluster = Cluster::single({1, 1});
  SimConfig config = base_config();
  config.model = ExecutionModel::kWorkBased;
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 50.0, 0.0)};

  WakeupProbe probe;
  probe.on_schedule = [](SchedulerContext& ctx) {
    if (ctx.now() == 0) {
      ctx.request_wakeup(0);   // in the present -> clamps to slot 1
      ctx.request_wakeup(-3);  // in the past    -> clamps to slot 1, merged
    }
  };
  const SimResult result = simulate(cluster, config, jobs, probe);

  ASSERT_EQ(probe.invocations.size(), 2u);
  EXPECT_EQ(probe.invocations[0], 0);
  EXPECT_EQ(probe.invocations[1], 1);
  EXPECT_EQ(result.stats.timer_wakeups_requested, 2);
  EXPECT_EQ(result.stats.events_timer, 1) << "duplicate wakeups must merge";
}

TEST(ControlPlane, StallDetectionStillTriggersWithTimerPending) {
  // A policy that never places anything but keeps requesting wakeups must
  // not fool stall detection: pending timers alone cannot change state, so
  // the simulator must still diagnose the stall instead of spinning
  // through timer slots forever.
  const Cluster cluster = Cluster::single({4, 4});
  const std::vector<JobSpec> jobs{JobSpec::single_task(0, {1, 1}, 10.0, 0.0)};

  class IdleTimerScheduler final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "idle-timer"; }
    void schedule(SchedulerContext& ctx) override { ctx.request_wakeup(ctx.now() + 1); }
  };
  IdleTimerScheduler idle;
  EXPECT_THROW(simulate(cluster, base_config(), jobs, idle), std::runtime_error);
}

// ---- paired-seed refactor equivalence --------------------------------------

TEST(ControlPlane, SpeculationIdenticalToEverySlotPolling) {
  // The seed polled Capacity-with-speculation every slot; the refactor
  // wakes it only at events and threshold crossings.  Over several seeds
  // the two must produce bit-identical job records AND identical event
  // traces (every placement, kill and completion at the same instant on
  // the same server).
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  bool any_speculation = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<JobSpec> jobs = straggler_workload(seed);
    const SimConfig config = base_config(seed);

    CapacityConfig cc;
    cc.speculation.min_finished_fraction = 0.1;
    cc.speculation.slow_factor = 1.5;
    CapacityScheduler event_driven(cc);
    EverySlotAdapter polled(std::make_unique<CapacityScheduler>(cc));

    const SimResult fast =
        expect_polling_equivalent(cluster, config, jobs, event_driven, polled);
    for (const auto& j : fast.jobs) any_speculation |= j.speculative_launched > 0;
  }
  EXPECT_TRUE(any_speculation) << "test must actually exercise the speculation path";
}

TEST(ControlPlane, HopperIdenticalToEverySlotPolling) {
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<JobSpec> jobs = straggler_workload(seed);
    HopperScheduler event_driven;
    EverySlotAdapter polled(std::make_unique<HopperScheduler>());
    expect_polling_equivalent(cluster, base_config(seed), jobs, event_driven, polled);
  }
}

TEST(ControlPlane, SpeculationIdenticalUnderFailures) {
  // Failures inject events (and RNG draws) mid-run; the timer path must
  // still line up bit-for-bit with every-slot polling.
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  const std::vector<JobSpec> jobs = straggler_workload(7);
  SimConfig config = base_config(7);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 400.0;
  config.failures.mean_repair_seconds = 60.0;

  CapacityConfig cc;
  cc.speculation.min_finished_fraction = 0.1;
  cc.speculation.slow_factor = 1.5;
  CapacityScheduler event_driven(cc);
  EverySlotAdapter polled(std::make_unique<CapacityScheduler>(cc));
  const SimResult fast =
      expect_polling_equivalent(cluster, config, jobs, event_driven, polled);
  EXPECT_GT(fast.stats.events_server_failure, 0) << "failures must actually occur";
}

TEST(ControlPlane, TimeInvariantPoliciesUnaffectedByExtraWakeups) {
  // Policies whose decisions depend only on runtime state (not now()) must
  // be indifferent to how many slots the simulator visits: the adapter
  // forces every slot, the bare run visits only events.
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  const std::vector<JobSpec> jobs = straggler_workload(3);
  const auto make = [](int which) -> std::unique_ptr<Scheduler> {
    switch (which) {
      case 0: return std::make_unique<DrfScheduler>();
      case 1: return std::make_unique<TetrisScheduler>();
      case 2: return std::make_unique<CarbyneScheduler>();
      case 3:
        return std::make_unique<SimplePriorityScheduler>(
            SimplePriorityConfig{SimplePriorityRule::kSrpt, 1.5, 0});
      default:
        return std::make_unique<SimplePriorityScheduler>(
            SimplePriorityConfig{SimplePriorityRule::kSvf, 1.5, 0});
    }
  };
  for (int which = 0; which < 5; ++which) {
    auto bare = make(which);
    EverySlotAdapter polled(make(which));
    expect_polling_equivalent(cluster, base_config(3), jobs, *bare, polled);
  }
}

// ---- observability and the fast-forward win --------------------------------

TEST(ControlPlane, EventDrivenCutsInvocationsAtLeastFiveFold) {
  // The acceptance bar of the refactor: on a straggler-heavy load the
  // event-driven control plane must invoke Capacity-with-speculation at
  // least 5x less often than every-slot polling while producing the same
  // schedule.  Long tasks on short slots make events sparse — the regime
  // (5 s slots, minutes-long tasks) the deployment benches run in.
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 1}, 200.0, 300.0));
  }
  assign_poisson_arrivals(jobs, 50.0, 111);
  const SimConfig config = base_config(11);

  CapacityConfig cc;
  cc.speculation.min_finished_fraction = 0.1;
  cc.speculation.slow_factor = 1.5;
  CapacityScheduler event_driven(cc);
  EverySlotAdapter polled(std::make_unique<CapacityScheduler>(cc));
  const SimResult fast = simulate(cluster, config, jobs, event_driven);
  const SimResult slow = simulate(cluster, config, jobs, polled);

  expect_identical_outcomes(fast, slow);
  EXPECT_GE(slow.stats.scheduler_invocations, 5 * fast.stats.scheduler_invocations)
      << "event-driven path must skip the empty slots polling visited";
  EXPECT_GT(fast.stats.slots_fast_forwarded, fast.stats.slots_visited)
      << "most slots should be fast-forwarded, not visited";
}

TEST(ControlPlane, StatsCountersAreConsistent) {
  const Cluster cluster = Cluster::uniform(8, {4, 8});
  const std::vector<JobSpec> jobs = straggler_workload(2);
  CapacityConfig cc;
  cc.speculation.min_finished_fraction = 0.1;
  cc.speculation.slow_factor = 1.5;
  CapacityScheduler scheduler(cc);
  const SimResult result = simulate(cluster, base_config(2), jobs, scheduler);
  const SimStats& st = result.stats;

  EXPECT_GT(st.scheduler_invocations, 0);
  EXPECT_GT(st.slots_visited, 0);
  EXPECT_EQ(st.events_job_arrival, static_cast<long long>(jobs.size()));
  EXPECT_EQ(st.events_work_finish, 0) << "stochastic model run";
  EXPECT_GT(st.events_copy_finish, 0);
  EXPECT_EQ(st.placements_accepted, result.total_copies_launched);
  EXPECT_EQ(st.placement_attempts, st.placements_accepted + st.placements_rejected());
  EXPECT_GT(st.timer_wakeups_requested, 0) << "speculation must schedule wakeups";
  EXPECT_GE(st.wall_clock_seconds, 0.0);

  // The counters surface in the rendered report table.
  const RunSummary summary = summarize(result);
  EXPECT_EQ(summary.stats.scheduler_invocations, st.scheduler_invocations);
  const std::string table = render_control_plane({summary});
  EXPECT_NE(table.find("invocations"), std::string::npos);
  EXPECT_NE(table.find("ff_slots"), std::string::npos);
}

}  // namespace
}  // namespace dollymp
