// Differential matrix for the deterministic parallel scheduling core.
//
// The contract under test: a run with SimConfig::threads = N produces the
// SAME simulation as threads = 1 — the flight-recorder streams are
// bit-identical record for record, and every SimStats counter that
// describes the simulated world (events, placements, kills, index
// activity, recorder hash) is equal.  Only the parallel_* instrumentation
// (which legitimately depends on shard geometry) and wall clock may
// differ.  The matrix covers every scheduler policy, both inventories
// (paper Table 1 and the 3K google-trace machine mix), and fault
// injection on/off, for thread counts 2, 4 and 8 against the sequential
// reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dollymp/common/thread_pool.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/priority.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/workload/arrivals.h"

namespace dollymp {
namespace {

std::vector<JobSpec> matrix_workload(unsigned seed, int jobs_count) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < jobs_count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 1}, 20.0, 30.0));
  }
  assign_poisson_arrivals(jobs, 15.0, seed + 100);
  return jobs;
}

struct PolicyEntry {
  const char* name;
  SchedulerFactory factory;
};

std::vector<PolicyEntry> all_policies() {
  std::vector<PolicyEntry> policies;
  policies.push_back({"capacity", [] { return std::make_unique<CapacityScheduler>(); }});
  policies.push_back({"drf", [] { return std::make_unique<DrfScheduler>(); }});
  policies.push_back({"tetris", [] { return std::make_unique<TetrisScheduler>(); }});
  policies.push_back({"carbyne", [] { return std::make_unique<CarbyneScheduler>(); }});
  policies.push_back({"srpt", [] {
                        SimplePriorityConfig config;
                        config.rule = SimplePriorityRule::kSrpt;
                        return std::make_unique<SimplePriorityScheduler>(config);
                      }});
  policies.push_back({"svf", [] {
                        SimplePriorityConfig config;
                        config.rule = SimplePriorityRule::kSvf;
                        return std::make_unique<SimplePriorityScheduler>(config);
                      }});
  policies.push_back({"hopper", [] { return std::make_unique<HopperScheduler>(); }});
  policies.push_back({"dollymp0", [] {
                        DollyMPConfig config;
                        config.clone_budget = 0;
                        return std::make_unique<DollyMPScheduler>(config);
                      }});
  policies.push_back({"dollymp2", [] {
                        DollyMPConfig config;
                        config.clone_budget = 2;
                        return std::make_unique<DollyMPScheduler>(config);
                      }});
  return policies;
}

struct RunOutput {
  std::vector<TraceRecord> stream;
  SimStats stats;
  double makespan = 0.0;
  double total_flowtime = 0.0;
  long long copies = 0;
};

RunOutput run_once(const Cluster& cluster, SimConfig config,
                   const std::vector<JobSpec>& jobs, const SchedulerFactory& factory,
                   int threads) {
  Recorder rec;
  config.recorder = &rec;
  config.threads = threads;
  auto sched = factory();
  const SimResult result = simulate(cluster, config, jobs, *sched);
  return {rec.snapshot(), result.stats, result.makespan_seconds,
          result.total_flowtime(), result.total_copies_launched};
}

/// Equality over every SimStats field that describes the simulated world.
/// Excluded by design: parallel_* including the arena counters (shard
/// geometry and scratch traffic differ across thread counts),
/// threads_configured/threads_resolved (the knob itself), and
/// wall_clock_seconds/peak_rss_bytes (host time/memory).
void expect_stats_equal(const SimStats& a, const SimStats& b, const std::string& label) {
#define DMP_EXPECT_FIELD(field) EXPECT_EQ(a.field, b.field) << label << ": " #field
  DMP_EXPECT_FIELD(scheduler_invocations);
  DMP_EXPECT_FIELD(slots_visited);
  DMP_EXPECT_FIELD(slots_fast_forwarded);
  DMP_EXPECT_FIELD(timer_wakeups_requested);
  DMP_EXPECT_FIELD(events_copy_finish);
  DMP_EXPECT_FIELD(events_work_finish);
  DMP_EXPECT_FIELD(events_server_failure);
  DMP_EXPECT_FIELD(events_server_repair);
  DMP_EXPECT_FIELD(events_timer);
  DMP_EXPECT_FIELD(events_job_arrival);
  DMP_EXPECT_FIELD(events_rack_failure);
  DMP_EXPECT_FIELD(events_rack_repair);
  DMP_EXPECT_FIELD(events_fail_slow_onset);
  DMP_EXPECT_FIELD(events_fail_slow_recover);
  DMP_EXPECT_FIELD(events_copy_fault);
  DMP_EXPECT_FIELD(placement_attempts);
  DMP_EXPECT_FIELD(placements_accepted);
  DMP_EXPECT_FIELD(rejected_job_not_ready);
  DMP_EXPECT_FIELD(rejected_phase_not_runnable);
  DMP_EXPECT_FIELD(rejected_copy_cap);
  DMP_EXPECT_FIELD(rejected_invalid_server);
  DMP_EXPECT_FIELD(rejected_no_capacity);
  DMP_EXPECT_FIELD(index_queries);
  DMP_EXPECT_FIELD(index_updates);
  DMP_EXPECT_FIELD(index_servers_scanned);
  // Thread-count-independent: the batch cache is keyed by demand and pool
  // generation, both products of the simulated world alone.
  DMP_EXPECT_FIELD(index_batch_hits);
  DMP_EXPECT_FIELD(index_batch_rebuilds);
  DMP_EXPECT_FIELD(recorder_records);
  DMP_EXPECT_FIELD(recorder_bytes);
  DMP_EXPECT_FIELD(recorder_evictions);
  DMP_EXPECT_FIELD(recorder_hash);
  DMP_EXPECT_FIELD(copies_killed_by_faults);
  DMP_EXPECT_FIELD(work_seconds_lost);
  DMP_EXPECT_FIELD(retries_issued);
  DMP_EXPECT_FIELD(backoff_slots_waited);
  DMP_EXPECT_FIELD(servers_quarantined);
  DMP_EXPECT_FIELD(quarantine_exits);
  DMP_EXPECT_FIELD(clone_budget_degradations);
  DMP_EXPECT_FIELD(copies_finished);
  DMP_EXPECT_FIELD(copies_killed);
  DMP_EXPECT_FIELD(leaked_cpu);
  DMP_EXPECT_FIELD(leaked_mem);
  DMP_EXPECT_FIELD(leaked_active_copies);
  // Layout counters: the same decisions must drive the same slab traffic
  // and store footprint regardless of thread count.  peak_rss_bytes is
  // excluded like wall_clock_seconds (host-dependent, monotone per
  // process).
  DMP_EXPECT_FIELD(copy_slab_acquires);
  DMP_EXPECT_FIELD(copy_slab_reuses);
  DMP_EXPECT_FIELD(copy_slab_blocks);
  DMP_EXPECT_FIELD(runtime_store_bytes);
  DMP_EXPECT_FIELD(server_table_bytes);
  DMP_EXPECT_FIELD(bytes_per_server);
#undef DMP_EXPECT_FIELD
}

void run_matrix(const Cluster& cluster, const std::vector<JobSpec>& jobs,
                const char* inventory) {
  for (const auto& policy : all_policies()) {
    for (const bool faults : {false, true}) {
      SimConfig config;
      config.slot_seconds = 1.0;
      config.seed = 42;
      if (faults) {
        config.failures.enabled = true;
        config.failures.mean_time_to_failure_seconds = 400.0;
        config.failures.mean_repair_seconds = 60.0;
      }
      const RunOutput reference = run_once(cluster, config, jobs, policy.factory, 1);
      ASSERT_FALSE(reference.stream.empty()) << policy.name;
      EXPECT_EQ(reference.stats.parallel_sections, 0)
          << policy.name << ": sequential run must not dispatch shards";
      EXPECT_EQ(reference.stats.parallel_arena_acquires, 0)
          << policy.name << ": sequential run must not touch the parallel arenas";
      for (const int threads : {2, 4, 8}) {
        const std::string label = std::string(inventory) + "/" + policy.name +
                                  (faults ? "/faults" : "/healthy") + "/threads=" +
                                  std::to_string(threads);
        const RunOutput parallel = run_once(cluster, config, jobs, policy.factory, threads);
        const DivergenceReport report = compare_streams(reference.stream, parallel.stream);
        EXPECT_TRUE(report.identical) << label << "\n" << report.to_string();
        expect_stats_equal(reference.stats, parallel.stats, label);
        EXPECT_EQ(reference.makespan, parallel.makespan) << label;
        EXPECT_EQ(reference.total_flowtime, parallel.total_flowtime) << label;
        EXPECT_EQ(reference.copies, parallel.copies) << label;
      }
    }
  }
}

// threads in {1,2,4,8} x 9 policies x faults on/off on the paper's 30-node
// inventory.
TEST(ParallelEquivalence, Paper30EveryPolicyEveryThreadCount) {
  run_matrix(Cluster::paper30(), matrix_workload(9, 8), "paper30");
}

// Same matrix at trace scale: the 3K-server google-trace machine mix,
// where the placement index actually engages.
TEST(ParallelEquivalence, GoogleTrace3KEveryPolicyEveryThreadCount) {
  run_matrix(Cluster::google_trace(3000), matrix_workload(11, 6), "google3k");
}

// The weighted placement walk only scores servers individually once
// per-server multipliers deviate from 1.0 — which requires DollyMP's
// straggler-aware scorer.  None of the matrix policies enables it, so pin
// the learned-weight path across thread counts with a dedicated
// differential.
TEST(ParallelEquivalence, StragglerAwareWeightedWalkMatchesSequential) {
  const Cluster cluster = Cluster::google_trace(3000);
  const auto jobs = matrix_workload(5, 8);
  const SchedulerFactory factory = [] {
    DollyMPConfig config;
    config.clone_budget = 2;
    config.straggler_aware = true;
    return std::make_unique<DollyMPScheduler>(config);
  };
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 21;
  const RunOutput reference = run_once(cluster, config, jobs, factory, 1);
  for (const int threads : {2, 4, 8}) {
    const RunOutput parallel = run_once(cluster, config, jobs, factory, threads);
    const DivergenceReport report = compare_streams(reference.stream, parallel.stream);
    EXPECT_TRUE(report.identical) << "threads=" << threads << "\n" << report.to_string();
    expect_stats_equal(reference.stats, parallel.stats,
                       "straggler/threads=" + std::to_string(threads));
    // The parallel run must actually have exercised the sharded priority
    // and speculation passes — otherwise this test proves nothing.
    EXPECT_GT(parallel.stats.parallel_sections, 0) << "threads=" << threads;
  }
}

// The priority oracle's scratch arena reaches steady state: after the first
// acquisition sized the buffers, later recomputes must run entirely inside
// retained capacity (zero allocations in the shard-merge glue).
TEST(ParallelEquivalence, PriorityScratchSteadyStateStopsGrowing) {
  ThreadPool pool(4);
  ShardStats stats;
  PriorityScratch scratch;
  std::vector<PriorityJobInput> inputs;
  for (int i = 0; i < 200; ++i) {
    PriorityJobInput in;
    in.volume = 1.0 + 0.25 * static_cast<double>(i % 17);
    in.length = 2.0 + static_cast<double>(i % 29);
    in.dominant = 0.01 * static_cast<double>(i % 50);
    inputs.push_back(in);
  }
  const PriorityResult first = compute_transient_priorities(inputs, &pool, &stats, &scratch);
  EXPECT_EQ(stats.arena_acquires, 1);
  const long long warmup_grows = stats.arena_grows;
  for (int pass = 0; pass < 10; ++pass) {
    const PriorityResult again = compute_transient_priorities(inputs, &pool, &stats, &scratch);
    EXPECT_EQ(again.priority, first.priority) << "arena must not change the answer";
  }
  EXPECT_EQ(stats.arena_acquires, 11);
  EXPECT_EQ(stats.arena_grows, warmup_grows) << "steady state must not allocate";
  EXPECT_EQ(stats.arena_reuses, stats.arena_acquires - stats.arena_grows);
  EXPECT_GE(stats.arena_reuses, 10);
}

// End-to-end: a threaded run drives the owner-held arenas (DollyMP's
// priority scratch, Capacity's speculation scratch) into reuse-dominated
// steady state, surfaced through SimStats.
TEST(ParallelEquivalence, SimulationArenasAreReuseDominated) {
  const Cluster cluster = Cluster::paper30();
  const auto jobs = matrix_workload(7, 24);
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 13;
  const SchedulerFactory factory = [] {
    DollyMPConfig dc;
    dc.clone_budget = 2;
    return std::make_unique<DollyMPScheduler>(dc);
  };
  const RunOutput out = run_once(cluster, config, jobs, factory, 4);
  EXPECT_GT(out.stats.parallel_arena_acquires, 0) << "threaded run must use the arenas";
  EXPECT_EQ(out.stats.parallel_arena_acquires,
            out.stats.parallel_arena_reuses + out.stats.parallel_arena_grows);
  EXPECT_GT(out.stats.parallel_arena_reuses, out.stats.parallel_arena_grows)
      << "steady state must be reuse-dominated";
}

// threads=0 resolves to hardware concurrency; whatever that is on the host,
// the simulation must stay bit-identical to the sequential run.
TEST(ParallelEquivalence, HardwareConcurrencyAutoThreadsMatchesSequential) {
  const Cluster cluster = Cluster::paper30();
  const auto jobs = matrix_workload(3, 8);
  const SchedulerFactory factory = [] {
    DollyMPConfig config;
    config.clone_budget = 2;
    return std::make_unique<DollyMPScheduler>(config);
  };
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 5;
  const RunOutput reference = run_once(cluster, config, jobs, factory, 1);
  const RunOutput auto_threads = run_once(cluster, config, jobs, factory, 0);
  const DivergenceReport report = compare_streams(reference.stream, auto_threads.stream);
  EXPECT_TRUE(report.identical) << report.to_string();
  expect_stats_equal(reference.stats, auto_threads.stats, "threads=0");
}

}  // namespace
}  // namespace dollymp
