#include "dollymp/sim/runtime_store.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dollymp/common/state_io.h"

namespace dollymp {

namespace {

/// Pool size for a phase: at least kMinPoolSize entries so that clones of
/// tasks in tiny phases still re-draw an independent duration (a literal
/// 1-entry pool would pin every clone to its original's time and make
/// cloning a single-task job a no-op, contradicting the paper's Fig. 2
/// example).
constexpr int kMinPoolSize = 16;

int pool_size_for(const PhaseSpec& ps) { return std::max(ps.task_count, kMinPoolSize); }

}  // namespace

void RuntimeStore::reserve_for(const std::vector<JobSpec>& specs) {
  std::size_t n_phases = 0;
  std::size_t n_tasks = 0;
  std::size_t n_pool = 0;
  for (const auto& spec : specs) {
    n_phases += spec.phases.size();
    for (const auto& ps : spec.phases) {
      n_tasks += static_cast<std::size_t>(ps.task_count);
      n_pool += static_cast<std::size_t>(pool_size_for(ps));
    }
  }
  // Growing capacity relocates the flat arrays, which silently invalidates
  // every RtSpan bound into them.  A batch run reserves once before any
  // views exist; a streaming run reserves before EVERY ingest chunk with
  // live jobs already bound — so relocation here must rebind, exactly as
  // materialize() does for growth it causes itself.
  const PhaseRuntime* phases_before = phases_.data();
  const TaskRuntime* tasks_before = tasks_.data();
  const double* durations_before = durations_.data();

  jobs_.reserve(jobs_.size() + specs.size());
  job_extents_.reserve(job_extents_.size() + specs.size());
  phases_.reserve(phases_.size() + n_phases);
  phase_extents_.reserve(phase_extents_.size() + n_phases);
  tasks_.reserve(tasks_.size() + n_tasks);
  durations_.reserve(durations_.size() + n_pool);

  if (phases_.data() != phases_before || tasks_.data() != tasks_before ||
      durations_.data() != durations_before) {
    rebind_views();
  }
}

std::size_t RuntimeStore::materialize(const JobSpec& spec, double slot_seconds,
                                      const LocalityModel& locality, Rng& rng) {
  if (slot_seconds <= 0.0) throw std::invalid_argument("materialize: slot_seconds > 0");
  spec.validate();

  // Service-mode slot reuse: a released slot of the same shape is rebuilt
  // in place — no array growth, no relocation, identical RNG draw order.
  if (!free_slots_.empty()) {
    shape_scratch_.clear();
    for (const auto& ps : spec.phases) {
      shape_scratch_.push_back(static_cast<std::uint32_t>(ps.task_count));
    }
    const auto it = free_slots_.find(shape_scratch_);
    if (it != free_slots_.end() && !it->second.empty()) {
      const std::size_t job_index = it->second.back();
      it->second.pop_back();
      if (it->second.empty()) free_slots_.erase(it);
      rematerialize(job_index, spec, slot_seconds, locality, rng);
      return job_index;
    }
  }

  const PhaseRuntime* phases_before = phases_.data();
  const TaskRuntime* tasks_before = tasks_.data();
  const double* durations_before = durations_.data();

  const std::size_t job_index = jobs_.size();
  jobs_.emplace_back();
  JobExtent job_extent;
  job_extent.phase_begin = static_cast<std::uint32_t>(phases_.size());
  job_extent.phase_count = static_cast<std::uint32_t>(spec.phases.size());

  {
    JobRuntime& job = jobs_.back();
    job.spec = &spec;
    job.id = spec.id;
    job.slot = static_cast<std::int32_t>(job_index);
    job.arrival = static_cast<SimTime>(std::llround(spec.arrival_seconds / slot_seconds));
    job.remaining_phases = static_cast<int>(spec.phases.size());
  }

  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    const PhaseSpec& ps = spec.phases[k];
    phases_.emplace_back();
    PhaseRuntime& phase = phases_.back();
    PhaseExtent extent;
    phase.index = static_cast<PhaseIndex>(k);
    phase.spec = &ps;
    phase.remaining_tasks = ps.task_count;
    phase.unscheduled_tasks = ps.task_count;
    phase.unfinished_parents = static_cast<int>(ps.parents.size());
    for (const auto parent : ps.parents) {
      phases_[job_extent.phase_begin + static_cast<std::size_t>(parent)].has_children = true;
    }
    phase.speedup = SpeedupFunction::from_stats(ps.theta_seconds, ps.sigma_seconds);

    // Pre-sample the phase's duration pool into the shared flat array.
    // With sigma == 0 the pool is constant theta; otherwise Pareto fitted
    // to (theta, sigma), matching how the paper derives the speedup
    // function from the same fit.
    const int pool_size = pool_size_for(ps);
    extent.pool_begin = static_cast<std::uint32_t>(durations_.size());
    extent.pool_count = static_cast<std::uint32_t>(pool_size);
    if (ps.sigma_seconds <= 0.0) {
      durations_.insert(durations_.end(), static_cast<std::size_t>(pool_size),
                        ps.theta_seconds);
    } else {
      const ParetoDist dist =
          ParetoDist::fit(ps.theta_seconds, ps.sigma_seconds / ps.theta_seconds);
      for (int i = 0; i < pool_size; ++i) {
        durations_.push_back(dist.sample(rng));
      }
    }

    extent.task_begin = static_cast<std::uint32_t>(tasks_.size());
    extent.task_count = static_cast<std::uint32_t>(ps.task_count);
    for (int i = 0; i < ps.task_count; ++i) {
      tasks_.emplace_back();
      TaskRuntime& task = tasks_.back();
      task.ref = TaskRef{spec.id, static_cast<PhaseIndex>(k), i};
      task.demand = ps.demand;
      task.copies.bind(&slab_);
      task.block = locality.place_block(rng);
    }
    phase_extents_.push_back(extent);
  }
  job_extents_.push_back(job_extent);

  if (phases_.data() != phases_before || tasks_.data() != tasks_before ||
      durations_.data() != durations_before) {
    rebind_views();
  } else {
    // No relocation: bind just the new job's spans.
    JobRuntime& job = jobs_[job_index];
    job.phases.assign(phases_.data() + job_extent.phase_begin, job_extent.phase_count);
    for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
      PhaseRuntime& phase = phases_[job_extent.phase_begin + k];
      const PhaseExtent& extent = phase_extents_[job_extent.phase_begin + k];
      phase.tasks.assign(tasks_.data() + extent.task_begin, extent.task_count);
      phase.duration_pool.assign(durations_.data() + extent.pool_begin, extent.pool_count);
    }
  }
  return job_index;
}

void RuntimeStore::rematerialize(std::size_t job_index, const JobSpec& spec,
                                 double slot_seconds, const LocalityModel& locality,
                                 Rng& rng) {
  const JobExtent& job_extent = job_extents_[job_index];

  JobRuntime& job = jobs_[job_index];
  job = JobRuntime{};  // RtSpan members are plain views; reassign below
  job.spec = &spec;
  job.id = spec.id;
  job.slot = static_cast<std::int32_t>(job_index);
  job.arrival = static_cast<SimTime>(std::llround(spec.arrival_seconds / slot_seconds));
  job.remaining_phases = static_cast<int>(spec.phases.size());
  job.phases.assign(phases_.data() + job_extent.phase_begin, job_extent.phase_count);

  // has_children is cross-phase state: clear all before the parent loops.
  for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
    phases_[job_extent.phase_begin + k].has_children = false;
  }

  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    const PhaseSpec& ps = spec.phases[k];
    PhaseRuntime& phase = phases_[job_extent.phase_begin + k];
    const PhaseExtent& extent = phase_extents_[job_extent.phase_begin + k];
    phase.index = static_cast<PhaseIndex>(k);
    phase.spec = &ps;
    phase.remaining_tasks = ps.task_count;
    phase.unscheduled_tasks = ps.task_count;
    phase.first_unscheduled_hint = 0;
    phase.active_copies = 0;
    phase.finished = false;
    phase.finish_slot = kNever;
    phase.gang_penalty = 1.0;
    phase.unfinished_parents = static_cast<int>(ps.parents.size());
    for (const auto parent : ps.parents) {
      phases_[job_extent.phase_begin + static_cast<std::size_t>(parent)].has_children = true;
    }
    phase.speedup = SpeedupFunction::from_stats(ps.theta_seconds, ps.sigma_seconds);

    // Identical draw order to the append path: the phase's pool samples
    // first, then per-task block placements.
    if (ps.sigma_seconds <= 0.0) {
      std::fill_n(durations_.begin() + extent.pool_begin, extent.pool_count,
                  ps.theta_seconds);
    } else {
      const ParetoDist dist =
          ParetoDist::fit(ps.theta_seconds, ps.sigma_seconds / ps.theta_seconds);
      for (std::uint32_t i = 0; i < extent.pool_count; ++i) {
        durations_[extent.pool_begin + i] = dist.sample(rng);
      }
    }
    phase.duration_pool.assign(durations_.data() + extent.pool_begin, extent.pool_count);
    phase.tasks.assign(tasks_.data() + extent.task_begin, extent.task_count);

    for (int i = 0; i < ps.task_count; ++i) {
      TaskRuntime& task = tasks_[extent.task_begin + static_cast<std::size_t>(i)];
      task.ref = TaskRef{spec.id, static_cast<PhaseIndex>(k), i};
      task.demand = ps.demand;
      task.copies.release_storage();  // extent already released at completion; idempotent
      task.block = locality.place_block(rng);
      task.finished = false;
      task.ever_cloned = false;
      task.finish_slot = kNever;
      task.first_start = kNever;
      task.work_done_seconds = 0.0;
      task.work_updated_at = 0;
      task.generation = 0;
    }
  }
}

void RuntimeStore::release_job(std::size_t job_index) {
  // The spec may be dropped by the caller once its jobs are recycled; null
  // the pointer so any dangling read trips immediately.
  jobs_[job_index].spec = nullptr;
  const JobExtent& job_extent = job_extents_[job_index];
  shape_scratch_.clear();
  for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
    shape_scratch_.push_back(phase_extents_[job_extent.phase_begin + k].task_count);
  }
  free_slots_[shape_scratch_].push_back(static_cast<std::uint32_t>(job_index));
}

std::vector<std::uint8_t> RuntimeStore::free_mask() const {
  std::vector<std::uint8_t> mask(jobs_.size(), 0);
  for (const auto& [shape, slots] : free_slots_) {
    for (const std::uint32_t slot : slots) mask[slot] = 1;
  }
  return mask;
}

void RuntimeStore::rebind_views() {
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    jobs_[j].phases.assign(phases_.data() + job_extents_[j].phase_begin,
                           job_extents_[j].phase_count);
  }
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    phases_[p].tasks.assign(tasks_.data() + phase_extents_[p].task_begin,
                            phase_extents_[p].task_count);
    phases_[p].duration_pool.assign(durations_.data() + phase_extents_[p].pool_begin,
                                    phase_extents_[p].pool_count);
  }
}

void RuntimeStore::save_state(StateWriter& w) const {
  w.section(0x53544F52u);  // 'STOR'
  w.pod_vec(durations_);
  w.pod_vec(job_extents_);
  w.pod_vec(phase_extents_);

  w.u64(jobs_.size());
  for (const JobRuntime& job : jobs_) {
    w.i32(job.id);
    w.i64(job.arrival);
    w.b(job.arrived);
    w.b(job.finished);
    w.i64(job.finish_slot);
    w.i64(job.first_start);
    w.i32(job.remaining_phases);
    w.i32(job.clones_launched);
    w.i32(job.speculative_launched);
    w.f64(job.resource_seconds);
    w.i32(job.tasks_with_clones);
    w.i32(job.pending_events);
  }

  w.u64(phases_.size());
  for (const PhaseRuntime& phase : phases_) {
    w.i32(phase.index);
    w.i32(phase.remaining_tasks);
    w.i32(phase.unfinished_parents);
    w.b(phase.has_children);
    w.i32(phase.unscheduled_tasks);
    w.i32(phase.first_unscheduled_hint);
    w.i32(phase.active_copies);
    w.b(phase.finished);
    w.i64(phase.finish_slot);
    w.f64(phase.gang_penalty);
    // spec pointer and speedup are rebuilt from the job's spec on load;
    // tasks/duration_pool spans from the extents.
  }

  w.u64(tasks_.size());
  for (const TaskRuntime& task : tasks_) {
    w.pod(task.ref);
    w.pod(task.demand);
    w.pod_vec(task.block.replicas);
    w.b(task.finished);
    w.b(task.ever_cloned);
    w.i64(task.finish_slot);
    w.i64(task.first_start);
    w.f64(task.work_done_seconds);
    w.i64(task.work_updated_at);
    w.u32(task.generation);
    w.u32(static_cast<std::uint32_t>(task.copies.size()));
    for (const CopyRuntime& copy : task.copies) w.pod(copy);
  }

  // Free-slot pool: indices only; shapes are recomputed from the extents.
  std::vector<std::uint32_t> free;
  for (const auto& [shape, slots] : free_slots_) {
    free.insert(free.end(), slots.begin(), slots.end());
  }
  w.pod_vec(free);
}

void RuntimeStore::load_state(StateReader& r, const std::vector<const JobSpec*>& specs) {
  r.section(0x53544F52u);  // 'STOR'
  clear();
  r.pod_vec(durations_);
  r.pod_vec(job_extents_);
  r.pod_vec(phase_extents_);

  const std::uint64_t n_jobs = r.u64();
  if (n_jobs != specs.size() || n_jobs != job_extents_.size()) {
    throw std::runtime_error("snapshot: runtime-store job count mismatch");
  }
  jobs_.resize(n_jobs);
  for (JobRuntime& job : jobs_) {
    job.slot = static_cast<std::int32_t>(&job - jobs_.data());
    job.id = r.i32();
    job.arrival = r.i64();
    job.arrived = r.b();
    job.finished = r.b();
    job.finish_slot = r.i64();
    job.first_start = r.i64();
    job.remaining_phases = r.i32();
    job.clones_launched = r.i32();
    job.speculative_launched = r.i32();
    job.resource_seconds = r.f64();
    job.tasks_with_clones = r.i32();
    job.pending_events = r.i32();
    job.invalidate_remaining_cache();
  }

  const std::uint64_t n_phases = r.u64();
  if (n_phases != phase_extents_.size()) {
    throw std::runtime_error("snapshot: runtime-store phase count mismatch");
  }
  phases_.resize(n_phases);
  for (PhaseRuntime& phase : phases_) {
    phase.index = r.i32();
    phase.remaining_tasks = r.i32();
    phase.unfinished_parents = r.i32();
    phase.has_children = r.b();
    phase.unscheduled_tasks = r.i32();
    phase.first_unscheduled_hint = r.i32();
    phase.active_copies = r.i32();
    phase.finished = r.b();
    phase.finish_slot = r.i64();
    phase.gang_penalty = r.f64();
  }

  // Fewest bytes one saved task takes: the fields below with no replicas
  // and no copies.
  constexpr std::size_t kMinTaskBytes = (4 + sizeof(TaskRef)) + (4 + sizeof(Resources)) +
                                        (4 + 8) + 1 + 1 + 8 + 8 + 8 + 8 + 4 + 4;
  tasks_.resize(r.count("task", kMinTaskBytes));
  for (TaskRuntime& task : tasks_) {
    r.pod(task.ref);
    r.pod(task.demand);
    r.pod_vec(task.block.replicas);
    task.finished = r.b();
    task.ever_cloned = r.b();
    task.finish_slot = r.i64();
    task.first_start = r.i64();
    task.work_done_seconds = r.f64();
    task.work_updated_at = r.i64();
    task.generation = r.u32();
    const std::uint32_t copies = r.u32();
    task.copies.bind(&slab_);
    for (std::uint32_t c = 0; c < copies; ++c) {
      CopyRuntime copy;
      r.pod(copy);
      task.copies.push_back(copy);  // re-acquires a slab extent; layout not semantic
    }
  }

  // Every span rebind_views() builds must lie inside its array.
  for (const JobExtent& extent : job_extents_) {
    if (std::uint64_t{extent.phase_begin} + extent.phase_count > phases_.size()) {
      throw std::runtime_error(
          "snapshot: runtime-store job extent outside the phase array");
    }
  }
  for (const PhaseExtent& extent : phase_extents_) {
    if (std::uint64_t{extent.task_begin} + extent.task_count > tasks_.size() ||
        std::uint64_t{extent.pool_begin} + extent.pool_count > durations_.size()) {
      throw std::runtime_error("snapshot: runtime-store phase extent outside the task or "
                               "duration array");
    }
  }

  // Rebind spec pointers and the spec-derived speedup from the supplied
  // per-slot specs, then every span from the extents.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobSpec* spec = specs[j];
    jobs_[j].spec = spec;
    const JobExtent& extent = job_extents_[j];
    if (spec->phases.size() != extent.phase_count) {
      throw std::runtime_error("snapshot: runtime-store phase extent mismatch");
    }
    for (std::size_t k = 0; k < extent.phase_count; ++k) {
      PhaseRuntime& phase = phases_[extent.phase_begin + k];
      phase.spec = &spec->phases[k];
      try {
        phase.speedup = SpeedupFunction::from_stats(spec->phases[k].theta_seconds,
                                                    spec->phases[k].sigma_seconds);
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error("snapshot: job slot " + std::to_string(j) + " phase " +
                                 std::to_string(k) + ": " + e.what());
      }
    }
  }
  rebind_views();

  std::vector<std::uint32_t> free;
  r.pod_vec(free);
  for (const std::uint32_t slot : free) {
    if (slot >= jobs_.size()) {
      throw std::runtime_error("snapshot: runtime-store free slot out of range");
    }
    release_job(slot);
  }
}

std::size_t RuntimeStore::memory_bytes() const {
  return jobs_.capacity() * sizeof(JobRuntime) +
         phases_.capacity() * sizeof(PhaseRuntime) +
         tasks_.capacity() * sizeof(TaskRuntime) +
         durations_.capacity() * sizeof(double) +
         job_extents_.capacity() * sizeof(JobExtent) +
         phase_extents_.capacity() * sizeof(PhaseExtent) + slab_.memory_bytes();
}

void RuntimeStore::clear() {
  // Task CopyLists hold slab extents; drop them before the slab's blocks.
  tasks_.clear();
  jobs_.clear();
  phases_.clear();
  durations_.clear();
  job_extents_.clear();
  phase_extents_.clear();
  free_slots_.clear();
  slab_.clear();
}

}  // namespace dollymp
