// RuntimeStore: flat struct-of-arrays backing store for all mutable
// job/phase/task/copy state of one simulation run.
//
// Before the overhaul each JobRuntime owned a vector<PhaseRuntime>, each
// phase a vector<TaskRuntime> and a vector<double> duration pool, and each
// task a vector<CopyRuntime> — tens of thousands of small heap blocks per
// trace run, scattered across the address space.  The store keeps ONE
// array per record kind, keyed by dense ids (a job's phases occupy a
// contiguous extent of the phase array, a phase's tasks a contiguous
// extent of the task array, and so on), and the runtime classes hold
// RtSpan windows into them.  Copy records live in a CopySlab with
// free-list reuse, so the steady state allocates nothing.
//
// Id spaces:
//   * JobId (job.h) stays the workload-assigned id; the store ALSO assigns
//     each job a dense slot — its index in jobs(), stored as
//     JobRuntime::slot — which is the simulator's per-job key (event
//     payloads, the arrival order, the active list) and the key of
//     schedulers' per-job caches.  A streaming run reuses recycled slots,
//     so the slot count tracks live jobs whatever the ids.
//   * Dense PhaseId / TaskId are the positions in phases()/tasks(); code
//     that needs them derives them by pointer difference, which the
//     contiguous layout makes valid across a whole run, not just within
//     one job.
//
// Growth: materialize() appends to the flat arrays.  When an append
// relocates an array, every span into it is rebound from the recorded
// extents — pointers held by callers across materialize() calls are
// invalid (exactly like iterators across vector::push_back), so the
// simulator materializes all jobs before taking references, and
// reserve_for() pre-sizes the arrays so the bulk path never relocates.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dollymp/sim/runtime_state.h"

namespace dollymp {

class StateWriter;
class StateReader;

class RuntimeStore {
 public:
  RuntimeStore() = default;
  RuntimeStore(const RuntimeStore&) = delete;
  RuntimeStore& operator=(const RuntimeStore&) = delete;

  /// Pre-size the flat arrays for exactly these specs (phase/task/pool
  /// totals are derivable from the specs alone), so the following
  /// materialize() calls never relocate.
  void reserve_for(const std::vector<JobSpec>& specs);

  /// Build the runtime skeleton for a job: samples the per-phase duration
  /// pools (Pareto fitted to theta/sigma; degenerate to constant when
  /// sigma is 0) and the input-block replica placements.  Returns the
  /// job's slot, its index into jobs().  Draw order matches the pre-overhaul
  /// materialize_job exactly (pool samples, then per-task blocks, phase by
  /// phase), so seeds reproduce bit-identical runs.
  std::size_t materialize(const JobSpec& spec, double slot_seconds,
                          const LocalityModel& locality, Rng& rng);

  [[nodiscard]] std::vector<JobRuntime>& jobs() { return jobs_; }
  [[nodiscard]] const std::vector<JobRuntime>& jobs() const { return jobs_; }
  [[nodiscard]] CopySlab& copy_slab() { return slab_; }
  [[nodiscard]] const CopySlab& copy_slab() const { return slab_; }

  /// Total copy slots handed back for reuse is visible via
  /// copy_slab().counters(); this is the store-wide footprint: flat
  /// arrays (capacity, not size — reserved headroom is real memory) plus
  /// slab blocks.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drop everything (flat arrays, slab, extents).
  void clear();

  /// Service-mode recycling: hand a completed job's slot back for reuse.
  /// The next materialize() of a job with the same shape (per-phase task
  /// counts — the pool size is a pure function of the task count, so it
  /// matches automatically) rebuilds the runtime records *in place*, with
  /// the identical RNG draw order the append path uses, so resident memory
  /// tracks live jobs instead of total arrivals.  The slot's JobRuntime
  /// keeps its finished state until reuse (active-list erase predicates
  /// stay sound); its copy extents must already be released.
  void release_job(std::size_t job_index);

  /// Per-slot free/live mask (1 = released), for checkpoint writers that
  /// must not dereference a released slot's nulled spec pointer.
  [[nodiscard]] std::vector<std::uint8_t> free_mask() const;

  /// Checkpoint/restore of every runtime record: flat arrays, extents,
  /// per-task copy lists (content re-acquired from the slab on load — the
  /// extent layout is not semantic) and the free-slot pool.  Spec pointers
  /// are NOT serialized: load_state takes the per-slot JobSpec pointers
  /// (deserialized by the caller, in slot order) and rebinds job.spec /
  /// phase.spec from them.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r, const std::vector<const JobSpec*>& specs);

 private:
  struct JobExtent {
    std::uint32_t phase_begin = 0;
    std::uint32_t phase_count = 0;
  };
  struct PhaseExtent {
    std::uint32_t task_begin = 0;
    std::uint32_t task_count = 0;
    std::uint32_t pool_begin = 0;
    std::uint32_t pool_count = 0;
  };

  /// Point every span at the current array locations (after relocation).
  void rebind_views();

  /// Rebuild a released slot's records in place for `spec` (same shape).
  void rematerialize(std::size_t job_index, const JobSpec& spec, double slot_seconds,
                     const LocalityModel& locality, Rng& rng);

  CopySlab slab_;
  std::vector<JobRuntime> jobs_;
  std::vector<PhaseRuntime> phases_;
  std::vector<TaskRuntime> tasks_;
  std::vector<double> durations_;
  std::vector<JobExtent> job_extents_;
  std::vector<PhaseExtent> phase_extents_;
  /// Released job slots keyed by shape (per-phase task counts).
  std::map<std::vector<std::uint32_t>, std::vector<std::uint32_t>> free_slots_;
  std::vector<std::uint32_t> shape_scratch_;
};

}  // namespace dollymp
