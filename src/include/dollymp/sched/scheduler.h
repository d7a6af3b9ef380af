// The scheduler interface and shared placement helpers.
//
// A Scheduler is a pure policy: at each decision point the simulator hands
// it a SchedulerContext through which it observes the cluster and the
// runtime state of active jobs and requests copy placements.  The simulator
// (the only implementer of SchedulerContext) validates every request —
// capacity (Eq. 5), precedence (Eq. 7), the per-task copy cap — so no
// policy can cheat.
//
// The control plane is event-driven: the simulator invokes the scheduler
// only at slots where something happened (arrival, completion, failure,
// repair) or where the policy asked to be woken via
// SchedulerContext::request_wakeup.  Time-triggered policies (speculative
// execution, Hopper) schedule their next straggler-check deadline instead
// of being polled every slot, which lets the simulator fast-forward across
// empty slots unconditionally.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/sim/runtime_state.h"
#include "dollymp/sim/types.h"

namespace dollymp {

class PlacementIndex;
class Recorder;
class StateReader;
class StateWriter;
class ThreadPool;
struct ShardStats;

class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual double slot_seconds() const = 0;
  [[nodiscard]] virtual const Cluster& cluster() const = 0;
  [[nodiscard]] virtual const SimConfig& config() const = 0;

  /// Jobs that have arrived and not yet finished, in arrival order.
  /// Pointers remain valid for the duration of the simulation run.
  [[nodiscard]] virtual const std::vector<JobRuntime*>& active_jobs() = 0;

  /// Launch a copy of `task` on `server`.  Returns false (placing nothing)
  /// if the phase is not runnable, the task already finished, the per-task
  /// copy cap is reached, or the server lacks free capacity.
  virtual bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                          ServerId server) = 0;

  /// Mark a placement as a speculative backup (for accounting); must be
  /// called instead of place_copy by speculation policies.
  virtual bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase,
                                      TaskRuntime& task, ServerId server) = 0;

  /// All-or-nothing placement of a gang phase (PhaseSpec::gang): either
  /// every needs-placement task of `phase` receives a copy in this call
  /// (returns true) or none does and the cluster is left untouched
  /// (returns false).  Per-task placement of gang phases is refused by
  /// next_unscheduled_task, so this is the only way a gang starts.  The
  /// default keeps lightweight contexts (tests, dry runs) compiling: gang
  /// phases simply stay pending under them.
  virtual bool place_gang(JobRuntime& /*job*/, PhaseRuntime& /*phase*/) { return false; }

  /// Ask to be invoked again at `slot` even if no arrival, completion or
  /// failure lands there.  This is the timer half of the event-driven
  /// control plane: a time-triggered policy computes the next slot at
  /// which its decision could change (e.g. the earliest straggler-threshold
  /// crossing) and registers it here; the simulator fast-forwards to
  /// min(next arrival, next completion, next failure, next wakeup).
  /// Requests for slots at or before now() are clamped to now() + 1.
  /// Multiple requests are merged; a wakeup fires at most one scheduler
  /// invocation per slot.
  virtual void request_wakeup(SimTime slot) = 0;

  /// RNG stream reserved for scheduler-side randomness (never shared with
  /// the workload/execution streams, so policies do not perturb the
  /// environment's realization).
  [[nodiscard]] virtual Rng& policy_rng() = 0;

  /// Incremental free-capacity index over cluster(), told about every
  /// allocation, release, crash, repair and quarantine change by the
  /// context.  Never null: every placement query — the helpers below and
  /// DollyMP's weighted pick — is answered by it.
  [[nodiscard]] virtual PlacementIndex* placement_index() = 0;

  // Unused; they exist only because perfbench's forwarding context overrides them.
  [[nodiscard]] virtual ThreadPool* worker_pool() { return nullptr; }
  [[nodiscard]] virtual ShardStats* shard_stats() { return nullptr; }

  /// The run's flight recorder (obs/recorder.h), or nullptr when recording
  /// is off.  Scheduler-side decision points (the placement helpers below,
  /// DollyMP's weighted pick, the speculation pass) append their chosen
  /// server + score here so a trace shows *why* a copy landed where it did.
  [[nodiscard]] virtual Recorder* recorder() { return nullptr; }

  // Resilience-policy channel (sched/resilience.h).  Default no-ops so
  // lightweight contexts (tests, dry runs) need not implement them.

  /// Quarantine or release a server: a quarantined server stays up (its
  /// running copies continue) but is excluded from placement — can_fit
  /// returns false, and so the PlacementIndex, which the simulator tells
  /// about the change, offers it to no query until released.  Idempotent.
  virtual void set_server_quarantined(ServerId /*server*/, bool /*quarantined*/) {}

  /// Tell the control plane that placement of at least one task was
  /// deliberately deferred (retry backoff) and the policy wants to run
  /// again at `release_slot`.  Distinguishes "waiting on purpose" from a
  /// genuine stall so the simulator's no-progress detector does not fire.
  virtual void defer_retry(SimTime release_slot) { request_wakeup(release_slot); }

  /// Availability accounting: a retry with `backoff_slots` of backoff was
  /// registered (surfaced in SimStats).
  virtual void note_retry_issued(long long /*backoff_slots*/) {}

  /// Availability accounting: a scheduler pass ran with its clone budget
  /// shrunk from `configured` to `effective` under low live capacity.
  virtual void note_clone_budget_degraded(int /*effective*/, int /*configured*/) {}

  /// Current rung of the service-mode degradation ladder (0 = healthy).
  /// Policies consult it to shed redundancy under overload: level 1
  /// throttles clone budgets, level >= 2 also disables speculation.  Always
  /// 0 outside service mode, so batch runs are untouched.
  [[nodiscard]] virtual int overload_level() const { return 0; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once when a simulation starts (clear any per-run state).
  virtual void reset() {}

  /// Called after one or more jobs arrive, before schedule() in that slot.
  virtual void on_job_arrival(SchedulerContext& /*ctx*/) {}

  /// Make placement decisions for the current slot.
  virtual void schedule(SchedulerContext& ctx) = 0;

  /// Called when a copy finishes naturally (not killed): the feedback
  /// channel for online learning (learn/server_scorer.h).  Implementations
  /// should only record observations here, not place copies.
  virtual void on_copy_finished(SchedulerContext& /*ctx*/, const JobRuntime& /*job*/,
                                const PhaseRuntime& /*phase*/,
                                const TaskRuntime& /*task*/,
                                const CopyRuntime& /*copy*/) {}

  // Typed event notifications.  All fire while the simulator is draining
  // the slot's events, before the schedule() invocation of the same slot, so
  // a policy can update incremental state (dirty flags, learned scores)
  // instead of rescanning every active job on each invocation.  Like
  // on_copy_finished, these are observation channels: implementations must
  // not place copies from them.

  /// A phase finished its last task (Eq. 6); child phases just unlocked.
  virtual void on_phase_completed(SchedulerContext& /*ctx*/, const JobRuntime& /*job*/,
                                  const PhaseRuntime& /*phase*/) {}

  /// A job finished its last phase (Eq. 8).  The job is still present in
  /// active_jobs() during this call and is removed before schedule().
  virtual void on_job_completed(SchedulerContext& /*ctx*/, const JobRuntime& /*job*/) {}

  /// A server crashed; every copy it hosted has already been killed and
  /// the orphaned tasks are back in the needs-placement pool.
  virtual void on_server_failed(SchedulerContext& /*ctx*/, ServerId /*server*/) {}

  /// A failed server came back and accepts placements again.
  virtual void on_server_repaired(SchedulerContext& /*ctx*/, ServerId /*server*/) {}

  /// A fault killed one copy of `task` on `server` without the machine
  /// going down (transient copy fault), or as part of a machine loss (one
  /// call per killed copy).  Fires before on_server_failed for the same
  /// event.  Resilience policies register retry backoff / server strikes
  /// here.
  virtual void on_copy_fault(SchedulerContext& /*ctx*/, const JobRuntime& /*job*/,
                             const PhaseRuntime& /*phase*/, const TaskRuntime& /*task*/,
                             ServerId /*server*/) {}

  /// A server entered the fail-slow state: it stays up but new copies run
  /// `factor` times longer until on_server_restored.
  virtual void on_server_degraded(SchedulerContext& /*ctx*/, ServerId /*server*/,
                                  double /*factor*/) {}

  /// A fail-slow server recovered to full speed.
  virtual void on_server_restored(SchedulerContext& /*ctx*/, ServerId /*server*/) {}

  /// Checkpoint/restore: serialize any policy state that influences future
  /// decisions (priority caches, learned scores, backoff/quarantine
  /// bookkeeping) so a restored run replays bit-identically.  The defaults
  /// are correct for stateless policies — everything they decide is a pure
  /// function of the observable runtime state.  Stateful policies override
  /// both; load_state is called after reset() on a freshly constructed
  /// instance of the same policy/configuration.
  virtual void save_state(StateWriter& /*w*/) const {}
  virtual void load_state(StateReader& /*r*/) {}
};

/// Builds a fresh scheduler per call: every run (and every side of a
/// replay or paired comparison) owns its policy instance.
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

// ---- shared helpers used by several policies -------------------------------

/// Server with the largest free-resource inner product with `demand` among
/// those that can fit it, ties to the lowest id; kInvalidServer when none
/// fits.  This is the alignment placement of Tetris and the resource-fit
/// tie break of Algorithm 2 step 12.  Answered by the context's
/// PlacementIndex and recorded as a placement query.
[[nodiscard]] ServerId best_fit_server(SchedulerContext& ctx, const Resources& demand);

/// Lowest-id server that can fit `demand`; kInvalidServer when none.
[[nodiscard]] ServerId first_fit_server(SchedulerContext& ctx, const Resources& demand);

// Linear scans over every server with the same answers: the references the
// index is tested and benchmarked against.  No policy calls them.
[[nodiscard]] ServerId best_fit_server(const Cluster& cluster, const Resources& demand);
[[nodiscard]] ServerId first_fit_server(const Cluster& cluster, const Resources& demand);

/// Next task of `phase` that has no copy yet, using the phase's monotone
/// cursor (O(1) amortized); nullptr when all tasks are scheduled.  Gang
/// phases always answer nullptr: their tasks may only start through
/// SchedulerContext::place_gang, so no per-task greedy path can ever place
/// a partial gang.
[[nodiscard]] TaskRuntime* next_unscheduled_task(PhaseRuntime& phase);

/// Offer every runnable gang phase of `job` with pending tasks to the
/// context's all-or-nothing placer, in phase order.  Returns the number of
/// tasks placed (0 when nothing committed).  Shared by every policy's
/// schedule() so gang jobs run under all of them.
int place_gang_phases(SchedulerContext& ctx, JobRuntime& job);

/// Greedily place unscheduled runnable tasks of `job` (in phase order) on
/// best-fit servers until nothing more fits; returns number placed.  Gang
/// phases are offered atomically via place_gang_phases first.
int place_job_greedy(SchedulerContext& ctx, JobRuntime& job);

/// Total demand-weighted allocation of a job's currently active copies
/// (the DRF "currently allocated" vector).  O(#phases): tasks of a phase
/// share one demand vector, so the sum is demand * active_copies per phase
/// using the incrementally maintained per-phase counter — exact because
/// demands are the same value the per-task scan would multiply.
[[nodiscard]] Resources job_active_allocation(const JobRuntime& job);

/// Brute-force per-task rescan of the same quantity (test/validation
/// reference for the O(#phases) read above).
[[nodiscard]] Resources job_active_allocation_scan(const JobRuntime& job);

}  // namespace dollymp
