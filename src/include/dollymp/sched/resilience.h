// Resilience policies layered under a scheduler: retry backoff, server
// quarantine, and graceful clone degradation.
//
// A scheduler that merely re-places fault-killed tasks immediately makes
// two mistakes real resource managers learned to avoid: it hammers a
// crash-looping task back onto the cluster every slot (wasting capacity on
// work that keeps dying), and it keeps trusting machines that repeatedly
// eat copies.  This module packages the three standard counter-measures as
// a policy object any Scheduler can embed (DollyMP does — see
// DollyMPConfig::resilience):
//
//   * Per-task retry budgets with exponential backoff: after a fault kills
//     the last copy of a task, its re-placement is deferred by an
//     exponentially growing hold (initial << attempts, capped).  Backoff
//     delays but never refuses placement, so the every-job-completes
//     invariant is untouched.
//   * Server quarantine with probation: servers accumulate exponentially
//     decaying "strikes" on each fault they cause; past a threshold the
//     server is quarantined (excluded from can_fit and the PlacementIndex
//     via SchedulerContext::set_server_quarantined) for a fixed term, then
//     released on probation with half its strikes — a prompt re-offense
//     re-quarantines it quickly.  A fraction cap prevents the policy from
//     blacklisting the whole fleet.
//   * Graceful degradation: when the live (up, unquarantined) share of the
//     fleet drops below a watermark, the effective clone budget shrinks
//     proportionally — redundancy is the first thing to give up when
//     capacity is scarce.
//
// All state is deterministic (no RNG): decisions depend only on the event
// sequence, so replay determinism is preserved.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dollymp/sched/scheduler.h"

namespace dollymp {

struct ResilienceConfig {
  bool enabled = false;

  // ---- retry backoff -------------------------------------------------------
  /// Number of backoff doublings before the hold saturates; attempts past
  /// the budget keep the maximum hold (placement is delayed, never denied).
  int retry_budget = 4;
  SimTime backoff_initial_slots = 2;
  SimTime backoff_max_slots = 64;

  // ---- server quarantine ---------------------------------------------------
  bool quarantine = true;
  /// Strikes (decayed) at which a server is quarantined.
  double flap_threshold = 3.0;
  /// Strike half-life in slots (exponential decay between events).
  double strike_half_life_slots = 600.0;
  /// Quarantine term in slots.
  SimTime quarantine_slots = 240;
  /// Never quarantine more than this fraction of the fleet at once.
  double max_quarantined_fraction = 0.2;

  // ---- graceful clone degradation -----------------------------------------
  bool degrade_clones = true;
  /// Live-capacity fraction below which the clone budget starts shrinking.
  double capacity_watermark = 0.75;
};

/// Deterministic resilience state machine.  The owning scheduler forwards
/// its fault hooks here and brackets each schedule() pass with
/// begin_invocation / finish_invocation.
class ResiliencePolicy {
 public:
  ResiliencePolicy(ResilienceConfig config, std::size_t cluster_size);

  [[nodiscard]] const ResilienceConfig& config() const { return config_; }

  // ---- event hooks (forwarded by the scheduler) ---------------------------

  /// A fault killed a copy of `task` on `server`: register a strike against
  /// the server (possibly quarantining it) and, if the task lost its last
  /// copy, start its next backoff hold.
  void on_copy_fault(SchedulerContext& ctx, const TaskRuntime& task, ServerId server);
  void on_server_failed(SchedulerContext& ctx, ServerId server);
  void on_server_repaired(SchedulerContext& ctx, ServerId server);

  // ---- per-invocation bracket ---------------------------------------------

  /// Release quarantines whose term expired (on probation: strikes halved,
  /// not cleared), in ascending server id.  Call at the top of schedule().
  /// Due terms come off a min-heap of release slots, so an invocation with
  /// nothing due costs O(1) and reads no per-server array.
  void begin_invocation(SchedulerContext& ctx);

  /// True when `task`'s re-placement is under a backoff hold at `now`.
  /// Records the earliest pending release for finish_invocation.
  [[nodiscard]] bool should_defer(const TaskRuntime& task, SimTime now);

  /// If any task was held this invocation, tell the context (defer_retry
  /// registers the wakeup and excuses the idle slot from stall detection).
  /// Call after the placement loops.
  void finish_invocation(SchedulerContext& ctx);

  // ---- graceful degradation -----------------------------------------------

  /// Effective clone budget given the configured one: shrinks
  /// proportionally once live capacity falls below the watermark.
  [[nodiscard]] int degraded_clone_budget(const SchedulerContext& ctx,
                                          int configured) const;

  // ---- checkpoint/restore --------------------------------------------------
  /// Serialize backoff holds, strike ledgers and quarantine terms so a
  /// restored run replays identically.  load_state resizes the per-server
  /// vectors to the serialized fleet size and rebuilds the release heap.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

  // ---- introspection (tests) ----------------------------------------------
  [[nodiscard]] int quarantined_count() const { return quarantined_count_; }
  [[nodiscard]] int down_count() const { return down_count_; }
  [[nodiscard]] double strikes(ServerId server) const {
    return strikes_[static_cast<std::size_t>(server)];
  }
  [[nodiscard]] bool is_quarantined(ServerId server) const {
    return quarantine_release_[static_cast<std::size_t>(server)] != kNever;
  }

 private:
  struct TaskRefHash {
    std::size_t operator()(const TaskRef& ref) const {
      auto h = static_cast<std::uint64_t>(ref.job);
      h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(ref.phase);
      h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(ref.task);
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct Backoff {
    int attempts = 0;
    SimTime release = kNever;  ///< hold until this slot
  };

  void add_strike(SchedulerContext& ctx, ServerId server);
  [[nodiscard]] double decayed_strikes(ServerId server, SimTime now) const;

  ResilienceConfig config_;
  std::unordered_map<TaskRef, Backoff, TaskRefHash> backoff_;
  std::vector<double> strikes_;
  std::vector<SimTime> strike_updated_;
  /// Release slot per server; kNever when not quarantined.
  std::vector<SimTime> quarantine_release_;
  /// Min-heap of (release slot, server), one entry per term, pushed when
  /// the term starts.  Derived from quarantine_release_ (load_state
  /// rebuilds it), so it is not serialized.
  std::vector<std::pair<SimTime, ServerId>> release_heap_;
  /// Scratch: the servers begin_invocation releases.
  std::vector<ServerId> releasing_;
  int quarantined_count_ = 0;
  int down_count_ = 0;
  /// Earliest backoff release observed by should_defer this invocation.
  SimTime earliest_release_ = kNever;
};

}  // namespace dollymp
