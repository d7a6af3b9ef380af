// Steady-state allocation audit for the DollyMP hot loop.
//
// The tentpole's churn-kill contract: once its reused buffers are warm, a
// DollyMPScheduler::schedule() invocation performs ZERO heap allocations —
// no hash-map rehashes, no per-call order/candidate vectors, no
// stable_sort scratch.  Enforced with a counting global operator new over
// a fake context whose own placement path is also allocation-free after
// warm-up (copy vectors pre-reserved).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/rng.h"
#include "dollymp/job/job.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/runtime_state.h"
#include "dollymp/sim/runtime_store.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
}  // namespace

// Every form the binary allocates through is replaced, the nothrow ones
// included (std::stable_sort's temporary buffer uses them), so each
// allocation is counted and no pointer from a library allocator reaches
// the replaced operator delete.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dollymp {
namespace {

/// Count heap allocations performed by `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Minimal stand-alone SchedulerContext (the bench DryRunContext pattern):
/// placements allocate real server capacity and copy records but generate
/// no events; time never advances.
class FakeContext final : public SchedulerContext {
 public:
  FakeContext(Cluster cluster, std::vector<JobSpec> jobs, const SimConfig& config)
      : cluster_(std::move(cluster)),
        index_(cluster_),
        config_(config),
        locality_(config.locality, cluster_),
        specs_(std::move(jobs)) {
    Rng rng(config_.seed);
    store_.reserve_for(specs_);
    for (const auto& spec : specs_) {
      const std::size_t idx =
          store_.materialize(spec, config_.slot_seconds, locality_, rng);
      jobs_[idx].arrived = true;
    }
    active_.reserve(jobs_.size());
    for (auto& job : jobs_) {
      active_.push_back(&job);
      // Pre-reserve copy storage so steady-state placements never grow it.
      for (auto& phase : job.phases) {
        for (auto& task : phase.tasks) task.copies.reserve(8);
      }
    }
  }

  [[nodiscard]] SimTime now() const override { return 0; }
  [[nodiscard]] double slot_seconds() const override { return config_.slot_seconds; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const SimConfig& config() const override { return config_; }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override { return active_; }
  [[nodiscard]] Rng& policy_rng() override { return rng_; }
  [[nodiscard]] PlacementIndex* placement_index() override { return &index_; }

  bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                  ServerId server_id) override {
    if (job.finished || !phase.runnable() || task.finished) return false;
    if (task.total_copies() >= config_.max_copies_per_task) return false;
    Server& server = cluster_.server(static_cast<std::size_t>(server_id));
    if (!server.allocate(task.demand)) return false;
    index_.on_server_changed(server_id);
    const bool first_copy = task.copies.empty();
    CopyRuntime copy;
    copy.server = server_id;
    copy.start = 0;
    copy.active = true;
    task.copies.push_back(copy);
    ++phase.active_copies;
    if (first_copy) {
      --phase.unscheduled_tasks;
      task.first_start = 0;
    }
    return true;
  }
  bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                              ServerId server) override {
    return place_copy(job, phase, task, server);
  }
  void request_wakeup(SimTime /*slot*/) override {}
  void set_server_quarantined(ServerId server, bool quarantined) override {
    cluster_.server(static_cast<std::size_t>(server)).set_quarantined(quarantined);
    index_.on_server_changed(server);
    if (quarantined) quarantined_.push_back(server);
  }

  /// Undo every placement so the next schedule() round starts from
  /// scratch with warm buffers (the index keeps its group pool).
  void reset_placements() {
    cluster_.reset_allocations();
    for (const ServerId server : quarantined_) {
      cluster_.server(static_cast<std::size_t>(server)).set_quarantined(true);
    }
    for (auto& job : jobs_) {
      for (auto& phase : job.phases) {
        for (auto& task : phase.tasks) {
          task.copies.clear();
          task.first_start = kNever;
        }
        phase.active_copies = 0;
        phase.unscheduled_tasks = phase.spec->task_count;
        phase.first_unscheduled_hint = 0;
      }
      job.first_start = kNever;
    }
    for (std::size_t i = 0; i < cluster_.size(); ++i) {
      index_.on_server_changed(static_cast<ServerId>(i));
    }
  }

 private:
  Cluster cluster_;
  PlacementIndex index_;
  SimConfig config_;
  LocalityModel locality_;
  Rng rng_{7};
  std::vector<JobSpec> specs_;
  RuntimeStore store_;
  std::vector<JobRuntime>& jobs_ = store_.jobs();
  std::vector<JobRuntime*> active_;
  std::vector<ServerId> quarantined_;  ///< kept out across reset_placements
};

std::vector<JobSpec> small_workload(int count) {
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 6, {1, 1}, 20.0, 30.0));
  }
  return jobs;
}

SimConfig steady_config() {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 5;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

/// `prepare(ctx, scheduler)` runs once before the warm-up rounds; its
/// allocations are not counted.
template <typename Prepare>
void expect_steady_state_allocation_free(DollyMPConfig scheduler_config, Prepare&& prepare) {
  FakeContext ctx(Cluster::paper30(), small_workload(6), steady_config());
  DollyMPScheduler scheduler(scheduler_config);
  scheduler.on_job_arrival(ctx);  // priority recompute: allocs allowed here
  prepare(ctx, scheduler);

  // Warm-up: populates order_/candidates_ buffers and the copy vectors.
  scheduler.schedule(ctx);
  // Second warm-up on a fresh placement state, so every container any
  // schedule() round touches has reached steady-state capacity.
  ctx.reset_placements();
  scheduler.schedule(ctx);

  // Round three, same shape as round two: must not allocate at all.
  ctx.reset_placements();
  const std::uint64_t fresh = allocations_during([&] { scheduler.schedule(ctx); });
  EXPECT_EQ(fresh, 0u) << "schedule() on a drained cluster allocated";

  // And again with copies already running (the clone-candidate path).
  const std::uint64_t running = allocations_during([&] { scheduler.schedule(ctx); });
  EXPECT_EQ(running, 0u) << "schedule() with running copies allocated";
}

void expect_steady_state_allocation_free(DollyMPConfig scheduler_config) {
  expect_steady_state_allocation_free(scheduler_config,
                                      [](FakeContext&, DollyMPScheduler&) {});
}

TEST(DollyMPSteadyState, ScheduleIsAllocationFreeWithIndex) {
  expect_steady_state_allocation_free({});
}

TEST(DollyMPSteadyState, ScheduleIsAllocationFreeCorollaryClones) {
  DollyMPConfig config;
  config.corollary_clone_counts = true;
  expect_steady_state_allocation_free(config);
}

// Straggler-aware, resilient DollyMP²: learned weights already sit in the
// index's per-group heaps and a quarantine term is in flight on the release
// heap.  Every round drains the groups and refills them, so the heaps, the
// active lists, the per-slot score rows and the release heap must all keep
// their capacity.
TEST(DollyMPSteadyState, StragglerAwareResilientScheduleIsAllocationFree) {
  DollyMPConfig config;
  config.straggler_aware = true;
  config.resilience.enabled = true;
  expect_steady_state_allocation_free(config, [](FakeContext& ctx,
                                                 DollyMPScheduler& scheduler) {
    const JobRuntime& job = *ctx.active_jobs()[0];
    const PhaseRuntime& phase = job.phases[0];
    // A third of the fleet learns a slowdown; each observation pushes the
    // server's weight into the index.
    for (ServerId server = 0; server < 30; server += 3) {
      CopyRuntime copy;
      copy.server = server;
      copy.start = -(5 + server);
      scheduler.on_copy_finished(ctx, job, phase, phase.tasks[0], copy);
    }
    // Three strikes quarantine server 1 until slot 240; the clock stays at 0.
    for (int i = 0; i < 3; ++i) scheduler.on_server_failed(ctx, 1);
    for (int i = 0; i < 3; ++i) scheduler.on_server_repaired(ctx, 1);
    ASSERT_TRUE(ctx.cluster().server(1).is_quarantined());
    ASSERT_NE(ctx.placement_index()->multiplier(0), 1.0);
    ASSERT_NE(ctx.placement_index()->multiplier(3), ctx.placement_index()->multiplier(6));
  });
}

}  // namespace
}  // namespace dollymp
