// The steppable simulation core behind Simulator and the service mode.
//
// Historically the whole event loop lived inside Simulator::Impl and ran a
// workload start-to-finish in one call.  Service mode needs the same engine
// but driven incrementally: jobs streamed in over time, execution paused at
// a horizon, state checkpointed to disk and restored bit-identically, and
// live simulations forked for what-if exploration.  SimCore is that
// extraction — the exact batch semantics restructured as
//
//   SimCore core(cluster, config);
//   core.ingest(specs);          // repeatable: streaming chunks append
//   core.begin(scheduler);
//   core.step_until(horizon);    // kUnbounded == the legacy run loop
//   SimResult r = core.finish();
//
// Batch equivalence is bit-exact: Simulator::run is now a thin wrapper over
// this sequence, and the 36 golden flight-stream hashes pin the claim.  The
// restructured loop visits slot 0 unconditionally (first_visit_), performs
// the same same-slot processing (failures, arrivals, completions, scheduler
// invocation) and throws the same stall / max_slots / time-advance errors
// with the same messages.
//
// Streaming is one opt-in flag, off for batch runs.  set_streaming(true)
// changes three things:
//   * jobs_remaining_ == 0 no longer ends the run (more arrivals may be
//     ingested later; fault timers keep ticking) and step_until returns
//     kIdle when truly nothing is pending.
//   * a completed job's runtime slot is handed back to the RuntimeStore for
//     the next materialize of the same shape once its last in-flight heap
//     event has drained, so resident memory tracks *live* jobs instead of
//     total arrivals.  Recycled (ingest_seq, JobId) pairs are surfaced via
//     take_recycled for id reuse upstream.
//   * the stall throw is off: an open-ended arrival source can always
//     produce more work.
//
// A run is single-threaded; cores are used only by running independent
// replications side by side (common/experiment.h).
//
// Pending events live in one binary min-heap (a std::vector ordered by
// std::push_heap/std::pop_heap with std::greater<>).  The event comparator
// is a total order over every payload field, so the pop sequence is a pure
// function of the pending set.
//
// Checkpoint/restore: save_state serializes the complete mutable state —
// clock, RNG positions, cluster hot state, runtime store, the heap array,
// fault masks, background-load processes, recorder stream position and a
// length-prefixed scheduler blob — and load_state reproduces a run that
// pops the same events in the same order and appends the same trace
// records (docs/ALGORITHMS.md §19).  Restore re-pushes the heap array in
// stored order, which rebuilds the identical array, so a restored core
// re-serializes to the same bytes.
#pragma once

#include <array>
#include <chrono>
#include <deque>
#include <optional>
#include <vector>

#include "dollymp/cluster/background_load.h"
#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/rng.h"
#include "dollymp/metrics/records.h"
#include "dollymp/metrics/slo_window.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/faults.h"
#include "dollymp/sim/runtime_store.h"
#include "dollymp/sim/types.h"

namespace dollymp {

class StateWriter;
class StateReader;

/// Everything that can make the simulator visit a slot, in one typed heap.
/// Kind values double as the same-slot processing order: repairs before
/// failures (a machine that bounces within one slot ends up alive),
/// failures before completions (a copy cannot finish on a machine that
/// died the same instant), completions before timer wakeups (the scheduler
/// invocation a timer triggers must observe the slot's completions).
enum class EvKind : std::uint8_t {
  kServerRepair = 0,
  kServerFailure = 1,
  kCompletion = 2,  ///< copy finish (stochastic) or work prediction (work-based)
  kTimer = 3,       ///< scheduler wakeup requested via request_wakeup()
  // Fault-matrix events (sim/faults.h).  Rack events carry the rack index
  // in the `server` field.  Recover/repair kinds sort before their
  // onset/failure counterparts so a machine that bounces within one slot
  // ends up healthy, matching the crash-class convention above.
  kRackRepair = 4,
  kRackFailure = 5,
  kFailSlowRecover = 6,
  kFailSlowOnset = 7,
  kCopyFault = 8,   ///< cluster-wide transient copy-fault timer
};

/// One heap entry.  Completion events come in two flavours sharing the
/// kind: per-copy events (copy >= 0; stale when the copy was killed) and
/// per-task work predictions (copy == -1; stale when the task's generation
/// moved on).  Fields a kind does not use hold fixed sentinels so the
/// comparator defines one deterministic total order over all events.
struct SimEvent {
  SimTime slot = 0;
  EvKind kind = EvKind::kTimer;
  std::int32_t job_index = -1;
  PhaseIndex phase = -1;
  std::int32_t task = -1;
  std::int32_t copy = -1;        // -1 for work-based task events and non-completions
  std::uint32_t generation = 0;  // work-based staleness check, also a tie breaker
  ServerId server = kInvalidServer;

  // Repairs and failures form one group so same-slot machine events across
  // servers pop server-major with the repair first per server (each pop
  // draws the machine's next lifetime from the failure RNG, so this order
  // is part of the deterministic realization).
  [[nodiscard]] int group() const {
    switch (kind) {
      case EvKind::kServerRepair:
      case EvKind::kServerFailure:
      case EvKind::kRackRepair:
      case EvKind::kRackFailure:
      case EvKind::kFailSlowRecover:
      case EvKind::kFailSlowOnset:
        return 0;
      case EvKind::kCopyFault:
        return 1;  // after machine state settles, before completions
      case EvKind::kCompletion:
        return 2;
      case EvKind::kTimer:
        return 3;
    }
    return 4;  // unreachable
  }

  // Min-heap by slot with a fully deterministic total order: kind group,
  // then every payload field.  `generation` participates so two work-based
  // predictions for the same task (pushed by successive copy-set changes
  // landing on the same slot) pop in generation order instead of an
  // implementation-defined one.
  friend bool operator>(const SimEvent& a, const SimEvent& b) {
    if (a.slot != b.slot) return a.slot > b.slot;
    if (a.group() != b.group()) return a.group() > b.group();
    if (a.server != b.server) return a.server > b.server;
    if (a.kind != b.kind) return a.kind > b.kind;
    if (a.job_index != b.job_index) return a.job_index > b.job_index;
    if (a.phase != b.phase) return a.phase > b.phase;
    if (a.task != b.task) return a.task > b.task;
    if (a.copy != b.copy) return a.copy > b.copy;
    return a.generation > b.generation;
  }
};

/// Why step_until returned.
enum class StepOutcome : std::uint8_t {
  kFinished,        ///< batch mode: every ingested job completed
  kHorizonReached,  ///< the next due slot lies beyond the horizon
  kIdle,            ///< streaming: no live jobs, no pending arrivals, empty heap
};

/// Aggregate outcome counters for streaming runs, where per-job records
/// are not accumulated (a recycled job leaves only these behind).
struct StreamTotals {
  long long jobs_ingested = 0;
  long long jobs_completed = 0;
  double response_seconds_sum = 0.0;  ///< sum of (finish - arrival) wall seconds
  double makespan_seconds = 0.0;      ///< latest finish seen so far
  long long clones_launched = 0;
  long long speculative_launched = 0;
};

/// A recycled job slot's identity, surfaced so the streaming session can
/// reuse the JobId (bounding id-indexed scheduler state).
struct RecycledJob {
  std::int64_t ingest_seq = 0;
  JobId id = -1;
};

class SimCore final : public SchedulerContext {
 public:
  /// Horizon sentinel: never pause (the legacy batch loop).
  static constexpr SimTime kUnbounded = INT64_MAX;

  SimCore(Cluster cluster, const SimConfig& config);

  /// Service mode (see the header comment); set before begin(), off for
  /// batch runs.
  void set_streaming(bool streaming) { streaming_ = streaming; }

  /// Materialize jobs into the runtime store and merge them into the
  /// arrival order.  Callable repeatedly, before or after begin(); specs
  /// must outlive the core (the streaming session retains its segments).
  /// A negative job id throws std::invalid_argument: schedulers index
  /// per-job state by id.
  void ingest(const std::vector<JobSpec>& specs);

  /// Bind the scheduler, seed the fault timers and arm the loop at slot 0.
  void begin(Scheduler& scheduler);

  /// Run the event loop until nothing is due at or before `horizon` (the
  /// pause point advances no state: resuming recomputes the next due slot
  /// fresh, so arrivals ingested while paused are honoured).  Throws the
  /// legacy stall / max_slots / time-advance errors.
  StepOutcome step_until(SimTime horizon);

  /// Build the SimResult tail (records, leak accounting, counters).  A
  /// streaming core skips per-job records — use totals() instead.
  [[nodiscard]] SimResult finish();

  // ---- streaming observability -------------------------------------------
  [[nodiscard]] const StreamTotals& totals() const { return totals_; }
  [[nodiscard]] int jobs_remaining() const { return jobs_remaining_; }
  /// Ingest sequence number the next ingested job will receive — lets the
  /// session map take_recycled identities back to its spec segments.
  [[nodiscard]] std::int64_t next_ingest_seq() const { return next_ingest_seq_; }
  [[nodiscard]] const SimStats& stats() const { return result_.stats; }
  [[nodiscard]] std::size_t store_memory_bytes() const { return store_.memory_bytes(); }
  /// Drain the recycled-slot identities accumulated since the last call.
  void take_recycled(std::vector<RecycledJob>& out);

  // ---- overload protection (service mode; inert unless driven) -------------
  /// Observe each completed job's response time into `window` (null
  /// detaches).  The pointer is not serialized — the owning session rewires
  /// it after restore and round-trips the window contents itself.
  void set_slo_window(SloWindow* window) { slo_ = window; }
  /// Move the degradation ladder without tracing (restore path).  The live
  /// transition path is note_overload_transition below.
  void set_overload_level(int level) { overload_level_ = level; }
  /// SchedulerContext::overload_level for the policies.
  [[nodiscard]] int overload_level() const override { return overload_level_; }
  /// Servers currently placeable (up and not quarantined) — the live
  /// capacity the admission gate's watermark is measured against, O(fleet).
  [[nodiscard]] int live_servers() const;
  /// Accounting + trace for one shed arrival.  `reason`: 0 token bucket,
  /// 1 watermark, 2 overload ladder (the TraceEv::kArrivalShed encoding).
  void note_arrival_shed(JobId job, int tenant_class, int reason);
  /// Accounting + trace for a degradation-ladder move, then applies it.
  void note_overload_transition(int from_level, int to_level);

  // ---- checkpoint/restore -------------------------------------------------
  /// Serialize the complete mutable state (docs/DESIGN.md §4.8).  Legal at
  /// any pause point; const, so a live core can be snapshotted for forks.
  void save_state(StateWriter& w) const;
  /// Restore a snapshot written by save_state into a core constructed with
  /// the same config over any same-size cluster (the snapshot carries the
  /// authoritative cluster state).  Must be called after begin() with the
  /// scheduler that will continue the run; when `load_scheduler` is false
  /// the scheduler blob is skipped and the (freshly reset) scheduler starts
  /// cold — the policy-switch fork path.
  ///
  /// `shared_specs`, when non-null, is a per-slot spec-pointer table (from
  /// job_spec_pointers() of the core being forked): non-null entries are
  /// used directly instead of copying the spec out of the stream, so a fork
  /// shares its parent's immutable workload data.  The parent (or whatever
  /// owns those specs) must outlive this core.
  void load_state(StateReader& r, bool load_scheduler,
                  const std::vector<const JobSpec*>* shared_specs = nullptr);

  /// Per-slot spec pointers (null for recycled slots), aligned with the
  /// slot order save_state writes — the `shared_specs` input of a fork.
  [[nodiscard]] std::vector<const JobSpec*> job_spec_pointers() const;

  // ---- SchedulerContext ----------------------------------------------------
  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] double slot_seconds() const override { return config_.slot_seconds; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const SimConfig& config() const override { return config_; }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override { return active_; }
  [[nodiscard]] Rng& policy_rng() override { return rng_policy_; }
  [[nodiscard]] PlacementIndex* placement_index() override { return &index_; }
  [[nodiscard]] Recorder* recorder() override { return rec_; }
  bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                  ServerId server) override;
  bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                              ServerId server) override;
  bool place_gang(JobRuntime& job, PhaseRuntime& phase) override;
  void request_wakeup(SimTime slot) override;
  void set_server_quarantined(ServerId server_id, bool quarantined) override;
  void defer_retry(SimTime release_slot) override;
  void note_retry_issued(long long backoff_slots) override;
  void note_clone_budget_degraded(int effective, int configured) override;

 private:
  static std::uint64_t splitmix_seed(std::uint64_t seed, std::uint64_t tag) {
    std::uint64_t s = seed ^ (tag * 0x9E3779B97F4A7C15ULL);
    return splitmix64(s);
  }

  void push_event(const SimEvent& event);
  /// Remove and return the heap's minimum (the caller checked non-empty).
  SimEvent pop_event();
  void push_completion(SimTime slot, JobRuntime& job, PhaseIndex phase,
                       std::int32_t task, std::int32_t copy, std::uint32_t generation);
  bool place(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task, ServerId server,
             bool speculative);
  void visit_slot();
  void process_arrivals();
  void drain_failures();
  void drain_completions();
  void handle_copy_finish(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                          std::size_t copy_index);
  void handle_work_event(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                         std::uint32_t generation);
  void complete_task(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task);
  void end_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                CopyRuntime& copy, bool killed);
  void complete_phase(JobRuntime& job, PhaseRuntime& phase);
  void complete_job(JobRuntime& job);
  void maybe_recycle(JobRuntime& job);
  void sample_utilization();
  void trace(TraceEv type, JobId job = -1, PhaseIndex phase = -1,
             std::int32_t task = -1, std::int32_t copy = -1,
             std::int32_t server = -1, std::int64_t aux = 0);
  void validate_placeable(const JobSpec& spec) const;
  void seed_failures();
  void fail_server(ServerId server_id);
  void apply_server_down(ServerId server_id);
  void apply_server_up(ServerId server_id);
  void inject_copy_fault();
  /// The shared half of both fault kills (machine loss, copy fault): accrue
  /// the copy's work-model progress, end it as killed and charge the
  /// fault counters.  Callers add their own trace record and hook.
  void kill_copy_by_fault(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                          CopyRuntime& copy);
  /// After a fault killed copies of task `t`: unless the task already
  /// finished, re-predict its work-model completion and return it to the
  /// needs-placement pool when no copy survives.
  void requeue_after_fault(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                           std::size_t t);
  void push_machine_event(SimTime delay, EvKind kind, std::int32_t target);
  [[nodiscard]] bool any_copy_active() const { return active_copy_count_ > 0; }
  /// True when the heap holds anything that can change simulation state
  /// (timer wakeups alone cannot: they only re-invoke the scheduler).
  [[nodiscard]] bool state_events_pending() const {
    return events_.size() > pending_timer_count_;
  }

  Cluster cluster_;
  SimConfig config_;
  /// Incremental free-capacity index over cluster_: every allocate,
  /// release, crash, repair and quarantine change below is reported to it.
  PlacementIndex index_;
  LocalityModel locality_;
  BackgroundLoadProcess background_;
  Rng rng_root_;
  Rng rng_workload_;
  Rng rng_exec_;
  Rng rng_policy_;
  Rng rng_failure_;
  /// Fault-matrix delay draws + down-source bookkeeping; absent on a
  /// healthy run.  Holds a reference to rng_failure_ above.
  std::optional<FaultEngine> faults_;
  Recorder* rec_;  ///< flight recorder, null unless SimConfig::recorder set

  /// Struct-of-arrays backing store for all job/phase/task/copy state; the
  /// jobs_ reference below preserves the historical vector-of-jobs surface
  /// (indexing, `&job - jobs_.data()` event payloads) over its flat jobs
  /// array.
  RuntimeStore store_;
  std::vector<JobRuntime>& jobs_ = store_.jobs();
  std::vector<std::int32_t> arrival_order_;  // job indices by arrival slot
  std::size_t next_arrival_ = 0;
  std::vector<JobRuntime*> active_;
  /// The event heap: completions, failures, repairs and timer wakeups in a
  /// single deterministic total order (a min-heap under std::greater<>, so
  /// front() is the next event due).
  std::vector<SimEvent> events_;
  std::size_t pending_timer_count_ = 0;
  SimTime pending_timer_slot_ = kNever;  ///< dedupe: last timer slot still queued

  SimTime now_ = 0;
  Scheduler* scheduler_ = nullptr;  ///< valid from begin()
  /// place_gang scratch: the probe wave's tentative (task, server)
  /// assignments and the distinct racks of a committed wave.  Members so
  /// the steady state allocates nothing.
  std::vector<std::pair<TaskRuntime*, ServerId>> gang_scratch_;
  std::vector<int> gang_rack_scratch_;
  long long active_copy_count_ = 0;
  bool placed_this_invocation_ = false;
  /// Set via defer_retry(): the policy held at least one task back on
  /// purpose this invocation (retry backoff), so an otherwise-idle slot is
  /// not a stall.
  bool deferred_this_invocation_ = false;
  bool arrivals_this_slot_ = false;
  int jobs_remaining_ = 0;

  // ---- service-mode state --------------------------------------------------
  bool streaming_ = false;
  bool first_visit_ = true;       ///< slot 0 is visited unconditionally
  bool started_ = false;
  std::int64_t next_ingest_seq_ = 0;
  StreamTotals totals_;
  std::vector<RecycledJob> recycled_;
  /// Degradation-ladder rung the session governor last applied (0 outside
  /// service mode) and the optional response-time window it feeds.
  int overload_level_ = 0;
  SloWindow* slo_ = nullptr;
  /// JobSpecs deserialized from a snapshot (restored jobs point here; a
  /// deque keeps addresses stable as later snapshots or ingests append).
  std::deque<JobSpec> owned_specs_;
  std::optional<std::chrono::steady_clock::time_point> wall_start_;

  SimResult result_;
};

}  // namespace dollymp
