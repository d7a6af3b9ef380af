// The DollyMP online scheduler (Section 5, Algorithm 2).
//
// On every job arrival the scheduler recomputes each active job's remaining
// effective volume v_j(t) (Eq. 16) and remaining critical-path length
// e_j(t) (Eq. 17), feeds them to Algorithm 1's knapsack priority oracle
// (sched/priority.h) and caches the resulting priority classes ("to reduce
// the overhead, the scheduling order of all jobs in the cluster won't be
// updated until the next job arrival").
//
// At each decision slot it then:
//   1. places new tasks in priority order — within a class the task/server
//      pair with the best resource fit (inner product of demand and free
//      capacity, Algorithm 2 step 12) wins, honoring data locality;
//   2. once no new task fits anywhere, spends leftover resources on clones
//      of running tasks, again smallest-priority jobs first (the Section
//      4.1 rule: clone small jobs), up to `clone_budget` extra copies per
//      task (DollyMP^0/1/2/3 of the evaluation).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dollymp/learn/server_scorer.h"
#include "dollymp/sched/priority.h"
#include "dollymp/sched/resilience.h"
#include "dollymp/sched/scheduler.h"

namespace dollymp {

struct DollyMPConfig {
  /// Maximum extra copies per task: 0 disables cloning (DollyMP^0), the
  /// paper's default is 2 (DollyMP^2).  Clamped by SimConfig's hard cap.
  int clone_budget = 2;
  /// Sigma weighting r in e_j^k = theta + r*sigma (Section 6.1: r = 1.5).
  double sigma_factor = 1.5;
  /// Clone in priority (smallest-job-first) order per Section 4.1; false
  /// reverses the order — the naive-cloning ablation of DESIGN.md.
  bool smallest_first_clones = true;
  /// Also refresh priorities when jobs complete (the paper refreshes only
  /// on arrivals; enabling this is an ablation knob).
  bool recompute_on_completion = false;
  /// Online straggler-aware placement (the paper's Section 8 future work):
  /// learn per-server slowdown from completed copies and weight placement
  /// scores by the reciprocal estimate, steering copies and clones away
  /// from currently slow machines.
  bool straggler_aware = false;
  /// Clone budgeting per Corollary 4.1: cap a task's copies at
  /// r_j = min{ r : 2^l h(r) >= theta } for its job's priority class l, so
  /// no task gets more clones than needed to finish inside its class
  /// window.  Off by default (the paper's deployed system uses the flat
  /// budget).
  bool corollary_clone_counts = false;
  /// Resilience policies under fault injection (sched/resilience.h): retry
  /// backoff, server quarantine, clone degradation.  Disabled by default —
  /// and with it disabled the scheduler's decision stream is bit-identical
  /// to the pre-resilience implementation.
  ResilienceConfig resilience;
};

class DollyMPScheduler final : public Scheduler {
 public:
  explicit DollyMPScheduler(DollyMPConfig config = {});

  [[nodiscard]] std::string name() const override;
  void reset() override;
  void on_job_arrival(SchedulerContext& ctx) override;
  void schedule(SchedulerContext& ctx) override;
  void on_copy_finished(SchedulerContext& ctx, const JobRuntime& job,
                        const PhaseRuntime& phase, const TaskRuntime& task,
                        const CopyRuntime& copy) override;
  void on_job_completed(SchedulerContext& ctx, const JobRuntime& job) override;
  void on_copy_fault(SchedulerContext& ctx, const JobRuntime& job,
                     const PhaseRuntime& phase, const TaskRuntime& task,
                     ServerId server) override;
  void on_server_failed(SchedulerContext& ctx, ServerId server) override;
  void on_server_repaired(SchedulerContext& ctx, ServerId server) override;

  /// Checkpoint the decision-relevant state: the cached priority classes
  /// (refreshed only on arrivals, so they cannot be recomputed after a
  /// restore without changing decisions), the learned server scores and
  /// the resilience ledgers.  load_state expects a fresh instance of the
  /// same config after reset().
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// The embedded resilience policy (null unless config().resilience.enabled).
  [[nodiscard]] const ResiliencePolicy* resilience() const {
    return resilience_ ? &*resilience_ : nullptr;
  }

  /// Learned per-server slowdown estimates (only populated when
  /// config().straggler_aware is set).
  [[nodiscard]] const ServerScorer* scorer() const {
    return scorer_ ? &*scorer_ : nullptr;
  }

  [[nodiscard]] const DollyMPConfig& config() const { return config_; }

  /// Exposed for the overhead bench (Section 6.3.3): one full priority
  /// recomputation over the current active set.
  void recompute_priorities(SchedulerContext& ctx);

 private:
  struct JobOrder {
    JobRuntime* job;
    int priority;
    double volume;
    /// Whether the priority store had a fresh entry for this job.  Jobs
    /// that arrived after the last recompute have none: they sort last
    /// (the 1 << 20 sentinel) and are exempt from the Corollary 4.1 clone
    /// cap, exactly as a hash-map lookup miss used to behave.
    bool has_priority;
  };

  /// True when the priority cache holds a current-epoch entry for `slot`
  /// (see `epoch_` below).
  [[nodiscard]] bool priority_known(std::size_t slot) const;
  void rebuild_order(SchedulerContext& ctx);
  int place_new_tasks(SchedulerContext& ctx);
  /// Resilient variant of place_new_tasks: identical placement order but
  /// skips (and defers) tasks held under retry backoff — used only when the
  /// resilience policy is live, so the default path keeps the monotone
  /// cursor fast path.
  int place_new_tasks_resilient(SchedulerContext& ctx);
  int place_clones(SchedulerContext& ctx, int clone_budget);
  [[nodiscard]] ServerId pick_server(SchedulerContext& ctx, const TaskRuntime& task) const;
  /// The resilience policy, created lazily on first use (reset() drops it;
  /// hooks can fire before the first schedule(), so every entry point
  /// funnels through here).  Null when resilience is disabled.
  [[nodiscard]] ResiliencePolicy* live_resilience(SchedulerContext& ctx);

  DollyMPConfig config_;
  /// One job's cached priority class and remaining volume.
  struct CachedPriority {
    std::int64_t epoch = 0;
    double volume = 0.0;
    int priority = 0;
  };
  /// The priority cache, indexed by the job's runtime slot (JobRuntime::
  /// slot), so it is bounded by the store's slot count whatever the job
  /// ids.  An entry is valid iff its epoch == epoch_; each recompute (and
  /// each reset) bumps epoch_, which invalidates every stale entry in O(1)
  /// without deallocating or clearing, so schedule() stays allocation-free
  /// once the cache is warm.  A recycled slot's stale entry is never read:
  /// its next job is not active before it arrives, and every arrival
  /// recomputes before schedule() runs.
  std::vector<CachedPriority> cache_;
  std::int64_t epoch_ = 0;
  /// Reused scratch buffers: cleared, never shrunk, between invocations.
  std::vector<PriorityJobInput> inputs_;
  std::vector<JobOrder> order_;
  std::vector<TaskRuntime*> candidates_;
  /// Set by on_job_completed when recompute_on_completion is enabled;
  /// schedule() refreshes priorities and clears it.
  bool priorities_dirty_ = false;
  std::optional<ServerScorer> scorer_;
  /// Set by load_state when it restored scorer_: the placement index's
  /// multiplier mirror is derived state the simulator rebuilt at 1.0, so
  /// the next schedule() re-pushes every weight.  Not serialized.
  bool index_weights_stale_ = false;
  /// Live only when config_.resilience.enabled; rebuilt on reset().
  std::optional<ResiliencePolicy> resilience_;
};

}  // namespace dollymp
