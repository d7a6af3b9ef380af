// Result records produced by a simulation run.
//
// The evaluation metrics of Section 6: job flowtime (f_j - a_j), job running
// time (first task start to finish), resource usage (normalized demand x
// copy duration summed over copies, the Fig. 8 metric), clone counts, and
// cluster utilization.
#pragma once

#include <string>
#include <vector>

#include "dollymp/common/resources.h"
#include "dollymp/job/job.h"
#include "dollymp/sim/types.h"

namespace dollymp {

struct JobRecord {
  JobId id = -1;
  std::string name;
  std::string app;
  double arrival_seconds = 0.0;
  double first_start_seconds = 0.0;
  double finish_seconds = 0.0;
  int total_tasks = 0;
  int clones_launched = 0;        ///< extra copies beyond the first per task
  int speculative_launched = 0;
  int tasks_with_clones = 0;
  double resource_seconds = 0.0;  ///< sum over copies: normalized demand * runtime

  [[nodiscard]] double flowtime() const { return finish_seconds - arrival_seconds; }
  [[nodiscard]] double running_time() const { return finish_seconds - first_start_seconds; }
  [[nodiscard]] double wait_time() const { return first_start_seconds - arrival_seconds; }
};

struct TaskRecord {
  TaskRef ref;
  double first_start_seconds = 0.0;
  double finish_seconds = 0.0;
  int copies = 0;
};

struct UtilizationSample {
  double seconds = 0.0;
  double cpu = 0.0;   ///< fraction of total CPU allocated
  double mem = 0.0;   ///< fraction of total memory allocated
};

/// Control-plane observability: how the event/timer-driven simulator spent
/// a run.  Always filled (the counters are cheap); surfaced in the report
/// tables so every perf PR can show its effect on scheduler invocations
/// and fast-forwarding.
struct SimStats {
  // Control plane.
  long long scheduler_invocations = 0;  ///< schedule() calls
  long long slots_visited = 0;          ///< slots the event loop stopped at
  long long slots_fast_forwarded = 0;   ///< slots skipped between visits
  long long timer_wakeups_requested = 0;

  // Events processed, by kind.
  long long events_copy_finish = 0;   ///< stochastic-model completion events
  long long events_work_finish = 0;   ///< work-based-model prediction events
  long long events_server_failure = 0;
  long long events_server_repair = 0;
  long long events_timer = 0;         ///< timer wakeups fired
  long long events_job_arrival = 0;
  long long events_rack_failure = 0;      ///< rack-correlated outage events
  long long events_rack_repair = 0;
  long long events_fail_slow_onset = 0;   ///< server entered fail-slow state
  long long events_fail_slow_recover = 0;
  long long events_copy_fault = 0;        ///< transient copy-fault timer pops

  // Placement funnel: every place_copy/place_speculative_copy request,
  // split by outcome.
  long long placement_attempts = 0;
  long long placements_accepted = 0;
  long long rejected_job_not_ready = 0;      ///< job finished or not arrived
  long long rejected_phase_not_runnable = 0; ///< parents unfinished / task done
  long long rejected_copy_cap = 0;           ///< per-task concurrent-copy cap
  long long rejected_invalid_server = 0;     ///< server id out of range
  long long rejected_no_capacity = 0;        ///< server down or lacks resources

  // Placement-index effectiveness (all zero when the index is disabled):
  // queries answered, servers actually score-evaluated across them (the
  // "rescan" cost an unindexed run would pay per query times the fleet
  // size), and maintenance updates applied.
  long long index_queries = 0;
  long long index_servers_scanned = 0;
  long long index_updates = 0;
  // Batched placement (zero when the index is disabled): queries answered
  // by replaying a cached capacity-group walk vs walks (re)built.
  long long index_batch_hits = 0;
  long long index_batch_rebuilds = 0;

  // Flight recorder (obs/recorder.h; all zero when SimConfig::recorder is
  // null): records appended, wire bytes they represent, ring evictions, and
  // the incremental hash over the full stream — the run's replay
  // fingerprint (identical across same-seed runs; see obs/replay.h).
  long long recorder_records = 0;
  long long recorder_bytes = 0;
  long long recorder_evictions = 0;
  unsigned long long recorder_hash = 0;

  // Availability accounting (fault injection + resilience policies; all
  // zero on a healthy run).  work_seconds_lost charges each fault-killed
  // copy its elapsed runtime — the redo cost failures impose.
  long long copies_killed_by_faults = 0;  ///< crash / rack / copy-fault kills
  double work_seconds_lost = 0.0;
  long long retries_issued = 0;           ///< backoff retries registered
  long long backoff_slots_waited = 0;     ///< total slots placements were deferred
  long long servers_quarantined = 0;      ///< quarantine entries
  long long quarantine_exits = 0;         ///< probation released a server
  long long clone_budget_degradations = 0;  ///< scheduler passes with shrunk budget

  // Overload protection (service-mode admission gate + degradation ladder;
  // all zero when the knobs are off).  Every arrival the gate drops lands
  // in exactly one of the three shed counters, so
  // jobs_ingested + sum(arrivals_shed_*) == arrivals the source emitted —
  // the conservation gate bench/overload_stream.cpp enforces.
  long long arrivals_shed_admission = 0;  ///< token bucket rejected (rate cap)
  long long arrivals_shed_watermark = 0;  ///< live-load watermark shedding
  long long arrivals_shed_overload = 0;   ///< ladder level-3 emergency shedding
  long long overload_transitions = 0;     ///< degradation-ladder level changes
  long long overload_level_max = 0;       ///< highest ladder level reached

  // Gang scheduling (all zero when the workload has no gang phases).  A
  // "gang" here is one all-or-nothing placement wave of a PhaseSpec::gang
  // phase; rollbacks count probe waves that found no complete assignment
  // and released every tentative allocation.
  long long gangs_placed = 0;            ///< waves committed atomically
  long long gang_tasks_placed = 0;       ///< first copies placed across waves
  long long gang_rollbacks = 0;          ///< probe waves rolled back
  long long gangs_split_across_racks = 0;  ///< committed waves spanning >1 rack

  // End-of-run conservation check inputs (chaos invariant: every launched
  // copy is accounted for and no allocation leaks past the last job).
  long long copies_finished = 0;  ///< copies that ran to natural completion
  long long copies_killed = 0;    ///< copies terminated early (any cause)
  double leaked_cpu = 0.0;        ///< cluster CPU still allocated at run end
  double leaked_mem = 0.0;        ///< cluster memory still allocated at run end
  long long leaked_active_copies = 0;  ///< copies still marked active at run end

  // Data-layout accounting (struct-of-arrays overhaul): copy-slab extent
  // traffic (acquires vs free-list reuses and fresh block allocations —
  // steady state should reuse, not allocate), the flat runtime-store and
  // server-table footprints, and the derived bytes-per-server figure the
  // scale gate tracks.  Deterministic for a fixed workload, except
  // peak_rss_bytes (a process-wide high-water mark), which the
  // equivalence suite excludes like wall_clock_seconds.
  long long copy_slab_acquires = 0;
  long long copy_slab_reuses = 0;
  long long copy_slab_blocks = 0;
  long long runtime_store_bytes = 0;   ///< flat arrays + slab, capacity-accounted
  long long server_table_bytes = 0;    ///< struct-of-arrays server hot state
  double bytes_per_server = 0.0;       ///< server_table_bytes / cluster size
  long long peak_rss_bytes = 0;        ///< /proc VmHWM at run end (0 if unavailable)

  double wall_clock_seconds = 0.0;  ///< host time spent inside run()

  [[nodiscard]] long long events_processed() const {
    return events_copy_finish + events_work_finish + events_server_failure +
           events_server_repair + events_timer + events_job_arrival +
           events_rack_failure + events_rack_repair + events_fail_slow_onset +
           events_fail_slow_recover + events_copy_fault;
  }
  [[nodiscard]] long long placements_rejected() const {
    return rejected_job_not_ready + rejected_phase_not_runnable + rejected_copy_cap +
           rejected_invalid_server + rejected_no_capacity;
  }
};

struct SimResult {
  std::string scheduler;
  double slot_seconds = 5.0;
  double makespan_seconds = 0.0;
  std::vector<JobRecord> jobs;
  std::vector<TaskRecord> tasks;          ///< only when SimConfig::record_tasks
  std::vector<UtilizationSample> utilization;

  // Aggregates filled by the simulator.
  long long total_copies_launched = 0;
  long long total_tasks_completed = 0;

  /// Control-plane counters (invocations, events by kind, placement
  /// funnel, wall clock) — always recorded.
  SimStats stats;

  [[nodiscard]] double total_flowtime() const;
  [[nodiscard]] double mean_flowtime() const;
  [[nodiscard]] double total_running_time() const;
  [[nodiscard]] double total_resource_seconds() const;
  /// Fraction of tasks that had at least one clone (Fig. 10b).
  [[nodiscard]] double cloned_task_fraction() const;

  /// Find a job record by id; throws std::out_of_range when absent.
  [[nodiscard]] const JobRecord& job(JobId id) const;
};

}  // namespace dollymp
