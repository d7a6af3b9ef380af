// Mutable runtime state of jobs, phases, tasks and copies during a
// simulation.  Schedulers receive references to these objects through the
// SchedulerContext; the simulator is the only mutator (schedulers observe
// and request placements).
//
// Data layout: since the struct-of-arrays overhaul, these classes are VIEW
// holders.  The actual storage lives in flat parallel arrays owned by
// RuntimeStore (sim/runtime_store.h) — all PhaseRuntime records
// contiguous, all TaskRuntime records contiguous, all duration-pool
// samples contiguous, copy records pooled in a CopySlab.  JobRuntime::
// phases, PhaseRuntime::tasks and PhaseRuntime::duration_pool are RtSpan
// windows into those arrays, and TaskRuntime::copies is a slab-backed
// CopyList; the accessor surface (indexing, iteration, size, pointer
// difference against data()) is unchanged, so scheduler and metrics code
// is layout-agnostic.
//
// Non-clairvoyance: CopyRuntime::finish is the simulator's private
// realization of the copy's random duration.  Scheduler implementations
// must not read it (they only know theta/sigma, as the paper's AM does);
// this is enforced by convention and checked in code review, not the type
// system, to keep the state inspectable by tests and metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/cluster/locality.h"
#include "dollymp/common/distributions.h"
#include "dollymp/job/effective.h"
#include "dollymp/job/job.h"
#include "dollymp/sim/copy_slab.h"
#include "dollymp/sim/types.h"

namespace dollymp {

/// Non-owning window into one of RuntimeStore's flat arrays.  Deliberately
/// minimal: the vector read surface the runtime-state consumers use, plus
/// clear() (drop-the-elements semantics — storage stays with the store).
template <typename T>
class RtSpan {
 public:
  RtSpan() = default;

  /// Rebind the window (RuntimeStore does this on materialization and
  /// after any flat-array growth; tests bind hand-held backing vectors).
  void assign(T* data, std::size_t size) {
    data_ = data;
    size_ = static_cast<std::uint32_t>(size);
  }

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  /// Forget the elements.  The storage belongs to the store and is not
  /// reclaimed — used by tests exercising empty-state error paths.
  void clear() { size_ = 0; }

 private:
  T* data_ = nullptr;
  std::uint32_t size_ = 0;
};

class TaskRuntime {
 public:
  TaskRef ref;
  Resources demand;
  CopyList copies;              ///< slab-backed; see sim/copy_slab.h
  BlockPlacement block;         ///< input block replica placement

  bool finished = false;
  bool ever_cloned = false;  ///< ever had a redundant sibling (accounting)
  SimTime finish_slot = kNever;
  SimTime first_start = kNever;

  // Work-based model bookkeeping (Eq. 6): accrued work in theta-units of
  // seconds, last slot at which it was accrued, and a generation counter
  // that invalidates stale completion events when the copy set changes.
  double work_done_seconds = 0.0;
  SimTime work_updated_at = 0;
  std::uint32_t generation = 0;

  [[nodiscard]] int active_copies() const;
  [[nodiscard]] bool running() const { return active_copies() > 0; }
  [[nodiscard]] bool scheduled() const { return !copies.empty(); }
  [[nodiscard]] int total_copies() const { return static_cast<int>(copies.size()); }
  /// True when the task must (still or again) be placed: unfinished with no
  /// running copy.  Normally equivalent to "never scheduled", but a server
  /// failure can kill every copy of a task, putting it back in this state.
  [[nodiscard]] bool needs_placement() const { return !finished && active_copies() == 0; }
};

class PhaseRuntime {
 public:
  PhaseIndex index = 0;
  const PhaseSpec* spec = nullptr;

  RtSpan<TaskRuntime> tasks;
  int remaining_tasks = 0;     ///< n_j^k(t) of Eq. (16)
  int unfinished_parents = 0;  ///< runnable when 0 (Eq. 7)
  bool has_children = false;   ///< some phase consumes this one's output
  // Scheduler fast-path counters, maintained by the simulator so policies
  // can skip exhausted phases in O(1) instead of scanning task arrays.
  int unscheduled_tasks = 0;        ///< tasks with no copy yet
  int first_unscheduled_hint = 0;   ///< monotone cursor into `tasks`
  int active_copies = 0;            ///< currently running copies in this phase
  bool finished = false;
  SimTime finish_slot = kNever;  ///< lambda_j^k of Eq. (6)

  /// Pre-sampled base durations (seconds), one per task; clones re-draw
  /// uniformly from this pool (Section 6.3's clone rule).
  RtSpan<double> duration_pool;
  /// Speedup function h_j^k fitted from (theta, sigma) (Eq. 3).
  SpeedupFunction speedup{2.0};
  /// Rack-spread duration factor of the last committed gang wave:
  /// 1 + gang_spread_penalty * (distinct racks - 1), set by
  /// SimCore::place_gang before the commit so every copy of the wave (and
  /// later clones/re-executions) runs with the all-reduce penalty baked in.
  /// Exactly 1.0 for non-gang phases, so the != 1.0 fast path keeps the
  /// historical decision stream bit-identical.
  double gang_penalty = 1.0;

  [[nodiscard]] bool runnable() const { return unfinished_parents == 0 && !finished; }
};

class JobRuntime {
 public:
  const JobSpec* spec = nullptr;
  JobId id = -1;

  SimTime arrival = 0;
  bool arrived = false;
  bool finished = false;
  SimTime finish_slot = kNever;
  SimTime first_start = kNever;

  RtSpan<PhaseRuntime> phases;
  int remaining_phases = 0;

  // Aggregate accounting for the metrics module.
  int clones_launched = 0;        ///< copies beyond the first per task
  int speculative_launched = 0;   ///< backups from the speculation module
  double resource_seconds = 0.0;  ///< sum over copies: normalized demand x runtime
  int tasks_with_clones = 0;

  /// The job's runtime slot: its index in RuntimeStore::jobs(), the one
  /// per-job key (event payloads, the active list's snapshot, schedulers'
  /// per-job caches).  Set by RuntimeStore::materialize and load_state; a
  /// streaming core hands a recycled slot to a later job.
  std::int32_t slot = -1;
  /// In-flight heap events naming this slot.  A streaming core recycles
  /// the slot only once the last one has drained, so no event ever pops
  /// against a reused slot; inert in batch runs.
  std::int32_t pending_events = 0;

  /// Snapshot for the Eq. (16)/(17) recomputation.
  [[nodiscard]] JobProgress progress() const;

  /// Remaining effective volume v_j(t) (Eq. 16).  Cached: the inputs only
  /// change when a task or phase of this job completes, and the simulator
  /// calls invalidate_remaining_cache() on exactly those events, so
  /// repeated reads (every DollyMP recompute, Carbyne's leftover sort)
  /// skip the per-phase rescan.  A cache refresh runs the identical
  /// effective.h computation, so cached reads are bit-identical to fresh
  /// ones.
  [[nodiscard]] double remaining_volume(const Resources& cluster_total,
                                        double sigma_factor) const;
  /// Remaining effective length e_j(t) (Eq. 17).  Cached like
  /// remaining_volume.
  [[nodiscard]] double remaining_length(double sigma_factor) const;

  /// Drop the remaining_volume / remaining_length caches (a task or phase
  /// of this job just completed).
  void invalidate_remaining_cache() const {
    volume_cache_valid_ = false;
    length_cache_valid_ = false;
  }
  /// Max over remaining phases of the phase dominant share (the d_j used by
  /// Algorithm 1's capacity margin).
  [[nodiscard]] double max_dominant_share(const Resources& cluster_total) const;

  [[nodiscard]] int total_tasks() const { return spec->total_tasks(); }

 private:
  // remaining_volume / remaining_length caches, keyed by the call
  // parameters (different policies may pass different sigma factors).
  mutable bool volume_cache_valid_ = false;
  mutable double volume_cache_sigma_ = 0.0;
  mutable Resources volume_cache_total_;
  mutable double volume_cache_value_ = 0.0;
  mutable bool length_cache_valid_ = false;
  mutable double length_cache_sigma_ = 0.0;
  mutable double length_cache_value_ = 0.0;
};

}  // namespace dollymp
