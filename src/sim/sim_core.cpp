#include "dollymp/sim/sim_core.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "dollymp/common/distributions.h"
#include "dollymp/common/resources.h"
#include "dollymp/common/state_io.h"
#include "dollymp/common/stats.h"
#include "dollymp/sim/execution.h"

namespace dollymp {

namespace {

// Snapshot section tags (fourcc).  A reader that hits the wrong tag fails
// with the tag name instead of silently misparsing the stream.
constexpr std::uint32_t kTagCore = 0x434F5245u;   // 'CORE'
constexpr std::uint32_t kTagCluster = 0x434C5553u;  // 'CLUS'
constexpr std::uint32_t kTagBackground = 0x424B4744u;  // 'BKGD'
constexpr std::uint32_t kTagSpecs = 0x53504543u;  // 'SPEC'
constexpr std::uint32_t kTagArrivals = 0x41525256u;  // 'ARRV'
constexpr std::uint32_t kTagHeap = 0x48454150u;   // 'HEAP'
constexpr std::uint32_t kTagStats = 0x53544154u;  // 'STAT'
constexpr std::uint32_t kTagScheduler = 0x53434844u;  // 'SCHD'

void save_job_spec(StateWriter& w, const JobSpec& spec) {
  w.i32(spec.id);
  w.str(spec.name);
  w.str(spec.app);
  w.f64(spec.arrival_seconds);
  w.u64(spec.phases.size());
  for (const PhaseSpec& ps : spec.phases) {
    w.str(ps.name);
    w.i32(ps.task_count);
    w.pod(ps.demand);
    w.f64(ps.theta_seconds);
    w.f64(ps.sigma_seconds);
    w.b(ps.gang);
    w.pod_vec(ps.parents);
  }
}

// Fewest payload bytes one saved JobSpec / PhaseSpec can take (every
// string and vector empty): the bounds for their counts.
constexpr std::size_t kMinJobSpecBytes = 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kMinPhaseSpecBytes =
    8 + 4 + (4 + sizeof(Resources)) + 8 + 8 + 1 + (4 + 8);

JobSpec load_job_spec(StateReader& r) {
  JobSpec spec;
  spec.id = r.i32();
  spec.name = r.str();
  spec.app = r.str();
  spec.arrival_seconds = r.f64();
  spec.phases.resize(r.count("phase spec", kMinPhaseSpecBytes));
  for (PhaseSpec& ps : spec.phases) {
    ps.name = r.str();
    ps.task_count = r.i32();
    r.pod(ps.demand);
    ps.theta_seconds = r.f64();
    ps.sigma_seconds = r.f64();
    ps.gang = r.b();
    r.pod_vec(ps.parents);
  }
  return spec;
}

/// Stand-in spec written for a recycled (free) job slot: the slot's spec
/// pointer was nulled at release, but the restore path still needs a spec
/// of matching shape to rebind against before the slot is re-released.
JobSpec placeholder_spec(const JobRuntime& job) {
  JobSpec spec;
  spec.id = job.id;
  spec.name = "(recycled)";
  spec.phases.reserve(job.phases.size());
  for (const PhaseRuntime& phase : job.phases) {
    PhaseSpec ps;
    ps.name = "(recycled)";
    ps.task_count = static_cast<int>(phase.tasks.size());
    ps.theta_seconds = 1.0;
    spec.phases.push_back(std::move(ps));
  }
  return spec;
}

}  // namespace

SimCore::SimCore(Cluster cluster, const SimConfig& config)
    : cluster_(std::move(cluster)),
      config_(config),
      index_(cluster_),
      locality_(config.locality, cluster_),
      background_(config.background, cluster_.size(), splitmix_seed(config.seed, 0xB6)),
      rng_root_(config.seed),
      rec_(config.recorder) {
  rng_workload_ = rng_root_.split(1);
  rng_exec_ = rng_root_.split(2);
  rng_policy_ = rng_root_.split(3);
  rng_failure_ = rng_root_.split(4);
  if (config_.failures.enabled || config_.faults.any_enabled()) {
    faults_.emplace(cluster_, config_.failures, config_.faults, config_.slot_seconds,
                    rng_failure_);
  }
}

// ---- streaming driver ------------------------------------------------------

void SimCore::ingest(std::vector<JobSpec> specs) {
  if (!wall_start_) wall_start_ = std::chrono::steady_clock::now();
  if (specs.empty()) return;
  const auto chunk = std::make_shared<const std::vector<JobSpec>>(std::move(specs));

  // The active list holds pointers into jobs_; remember indices in case the
  // flat array relocates (the store rebinds its own spans, not ours).
  const JobRuntime* jobs_before = jobs_.data();
  std::vector<std::size_t> active_idx;
  active_idx.reserve(active_.size());
  for (const JobRuntime* j : active_) {
    active_idx.push_back(static_cast<std::size_t>(j - jobs_before));
  }

  store_.reserve_for(*chunk);
  const std::size_t order_before = arrival_order_.size();
  for (const auto& spec : *chunk) {
    // -1 is the "no job" value of trace records, so a negative id would
    // make a job's records read as nobody's.
    if (spec.id < 0) {
      throw std::invalid_argument("SimCore::ingest: job '" + spec.name + "' has negative id " +
                                  std::to_string(spec.id));
    }
    validate_placeable(spec);
    const std::size_t index =
        store_.materialize(spec, config_.slot_seconds, locality_, rng_workload_);
    if (index >= slot_specs_.size()) slot_specs_.resize(index + 1);
    slot_specs_[index] = chunk;
    arrival_order_.push_back(static_cast<std::int32_t>(index));
    ++jobs_remaining_;
    ++totals_.jobs_ingested;
  }
  if (jobs_.data() != jobs_before) {
    for (std::size_t k = 0; k < active_.size(); ++k) {
      active_[k] = jobs_.data() + active_idx[k];
    }
  }

  // Sort the new entries by arrival (stable: ties keep ingestion order,
  // exactly like the batch path's one global stable_sort) and merge them
  // into the unconsumed suffix.
  const auto by_arrival = [this](std::int32_t a, std::int32_t b) {
    return jobs_[static_cast<std::size_t>(a)].arrival <
           jobs_[static_cast<std::size_t>(b)].arrival;
  };
  std::stable_sort(arrival_order_.begin() + static_cast<std::ptrdiff_t>(order_before),
                   arrival_order_.end(), by_arrival);
  if (order_before > next_arrival_) {
    std::inplace_merge(arrival_order_.begin() + static_cast<std::ptrdiff_t>(next_arrival_),
                       arrival_order_.begin() + static_cast<std::ptrdiff_t>(order_before),
                       arrival_order_.end(), by_arrival);
  }
  // Drop the consumed prefix once it dominates, so the order array is
  // bounded by pending arrivals on an unbounded stream.
  if (next_arrival_ > 1024 && next_arrival_ > arrival_order_.size() / 2) {
    arrival_order_.erase(arrival_order_.begin(),
                         arrival_order_.begin() + static_cast<std::ptrdiff_t>(next_arrival_));
    next_arrival_ = 0;
  }
}

void SimCore::begin(Scheduler& scheduler) {
  if (started_) throw std::logic_error("SimCore: begin() called twice");
  if (!wall_start_) wall_start_ = std::chrono::steady_clock::now();
  result_.scheduler = scheduler.name();
  result_.slot_seconds = config_.slot_seconds;
  seed_failures();
  scheduler_ = &scheduler;
  scheduler.reset();
  started_ = true;
}

StepOutcome SimCore::step_until(SimTime horizon) {
  if (!started_) throw std::logic_error("SimCore: step_until() before begin()");
  for (;;) {
    if (first_visit_) {
      // Slot 0 is visited unconditionally, exactly like the legacy loop's
      // first iteration (a scheduler may have work even before arrivals).
      if (!streaming_ && jobs_remaining_ == 0) return StepOutcome::kFinished;
      if (streaming_ && jobs_remaining_ == 0 && no_events_pending() &&
          next_arrival_ >= arrival_order_.size()) {
        return StepOutcome::kIdle;
      }
      if (now_ > horizon) return StepOutcome::kHorizonReached;
      first_visit_ = false;
    } else {
      if (!streaming_ && jobs_remaining_ == 0) return StepOutcome::kFinished;

      // Fast-forward to the next slot anything can happen at: the earliest
      // of the next arrival, the event heap's top (completions, copy faults
      // and requested timer wakeups) and the machine queue's next batch.
      SimTime next = config_.max_slots + 1;
      if (next_arrival_ < arrival_order_.size()) {
        next = std::min(
            next, jobs_[static_cast<std::size_t>(arrival_order_[next_arrival_])].arrival);
      }
      if (!events_.empty()) next = std::min(next, events_.front().slot);
      if (!machine_.empty()) next = std::min(next, machine_.min_slot());

      if (streaming_ && jobs_remaining_ == 0 && no_events_pending() &&
          next_arrival_ >= arrival_order_.size()) {
        return StepOutcome::kIdle;
      }
      if (jobs_remaining_ > 0 && !streaming_ && !any_copy_active() &&
          next_arrival_ >= arrival_order_.size() && !state_events_pending()) {
        // Pending work, no running copies, no future arrivals, and no
        // pending event that could change state (pending timer wakeups do not
        // count: re-invoking a scheduler that just declined to place on an
        // idle cluster cannot help): if the policy also placed nothing we
        // are stuck — unless it explicitly deferred via defer_retry, in
        // which case the registered wakeup will re-invoke it when backoff
        // expires.
        if (!placed_this_invocation_ && !deferred_this_invocation_) {
          throw std::runtime_error(
              "Simulator: scheduler '" + scheduler_->name() + "' stalled at slot " +
              std::to_string(now_) + " with " + std::to_string(jobs_remaining_) +
              " unfinished job(s) and idle cluster");
        }
      }
      // Pause WITHOUT advancing: resuming recomputes the due slot fresh, so
      // jobs ingested while paused can still land between now_ and next.
      if (next > horizon) return StepOutcome::kHorizonReached;
      if (next <= now_) {
        throw std::logic_error("Simulator: time failed to advance");
      }
      result_.stats.slots_fast_forwarded += next - now_ - 1;
      now_ = next;
    }
    if (now_ > config_.max_slots) {
      throw std::runtime_error("Simulator: exceeded max_slots safety valve at slot " +
                               std::to_string(now_));
    }
    visit_slot();
  }
}

void SimCore::visit_slot() {
  ++result_.stats.slots_visited;
  arrivals_this_slot_ = false;
  drain_failures();
  process_arrivals();
  drain_completions();
  // Drop finished jobs from the active list (keep arrival order).
  std::erase_if(active_, [](const JobRuntime* j) { return j->finished; });

  placed_this_invocation_ = false;
  deferred_this_invocation_ = false;
  if (!active_.empty()) {
    if (arrivals_this_slot_) scheduler_->on_job_arrival(*this);
    ++result_.stats.scheduler_invocations;
    trace(TraceEv::kSchedulerInvoked, -1, -1, -1, -1, -1,
          static_cast<std::int64_t>(active_.size()));
    scheduler_->schedule(*this);
    sample_utilization();
  }
}

SimResult SimCore::finish() {
  // Build records.  A streaming core recycles job slots, so they no
  // longer cover every arrival (that is the point), and the aggregate
  // totals_ are the outcome record instead.
  if (!streaming_) {
    result_.jobs.reserve(jobs_.size());
    double makespan = 0.0;
    for (const auto& job : jobs_) {
      JobRecord rec;
      rec.id = job.id;
      rec.name = job.spec->name;
      rec.app = job.spec->app;
      rec.arrival_seconds = static_cast<double>(job.arrival) * config_.slot_seconds;
      rec.first_start_seconds = static_cast<double>(job.first_start) * config_.slot_seconds;
      rec.finish_seconds = static_cast<double>(job.finish_slot) * config_.slot_seconds;
      rec.total_tasks = job.total_tasks();
      rec.clones_launched = job.clones_launched;
      rec.speculative_launched = job.speculative_launched;
      rec.tasks_with_clones = job.tasks_with_clones;
      rec.resource_seconds = job.resource_seconds;
      makespan = std::max(makespan, rec.finish_seconds);
      result_.jobs.push_back(std::move(rec));
    }
    result_.makespan_seconds = makespan;
  } else {
    result_.makespan_seconds = totals_.makespan_seconds;
  }
  // Conservation inputs for the chaos invariants: with every job complete,
  // no allocation and no active copy may survive the run.
  for (const auto& server : cluster_.servers()) {
    result_.stats.leaked_cpu += server.used().cpu();
    result_.stats.leaked_mem += server.used().mem();
  }
  result_.stats.leaked_active_copies = active_copy_count_;
  result_.stats.index_queries = index_.counters().queries;
  result_.stats.index_servers_scanned = index_.counters().servers_scanned;
  result_.stats.index_updates = index_.counters().updates;
  result_.stats.index_batch_hits = index_.counters().batch_hits;
  result_.stats.index_batch_rebuilds = index_.counters().batch_rebuilds;
  {
    const CopySlab::Counters& slab = store_.copy_slab().counters();
    result_.stats.copy_slab_acquires = static_cast<long long>(slab.acquires);
    result_.stats.copy_slab_reuses = static_cast<long long>(slab.reuses);
    result_.stats.copy_slab_blocks = static_cast<long long>(slab.block_allocations);
    result_.stats.runtime_store_bytes = static_cast<long long>(store_.memory_bytes());
    result_.stats.server_table_bytes = static_cast<long long>(cluster_.table().memory_bytes());
    result_.stats.bytes_per_server =
        cluster_.empty() ? 0.0
                         : static_cast<double>(result_.stats.server_table_bytes) /
                               static_cast<double>(cluster_.size());
    result_.stats.peak_rss_bytes = process_peak_rss_bytes();
  }
  if (rec_) {
    result_.stats.recorder_records = static_cast<long long>(rec_->records_written());
    result_.stats.recorder_bytes = static_cast<long long>(rec_->bytes_written());
    result_.stats.recorder_evictions = static_cast<long long>(rec_->evictions());
    result_.stats.recorder_hash = rec_->hash();
  }
  result_.stats.wall_clock_seconds =
      wall_start_
          ? std::chrono::duration<double>(std::chrono::steady_clock::now() - *wall_start_)
                .count()
          : 0.0;
  return std::move(result_);
}

void SimCore::maybe_recycle(JobRuntime& job) {
  if (!streaming_ || !job.finished || job.pending_events > 0) return;
  const auto slot = static_cast<std::size_t>(job.slot);
  store_.release_job(slot);
  slot_specs_[slot].reset();
}

std::size_t SimCore::specs_retained() const {
  std::vector<const std::vector<JobSpec>*> chunks;
  for (const auto& chunk : slot_specs_) {
    if (chunk) chunks.push_back(chunk.get());
  }
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  std::size_t specs = 0;
  for (const auto* chunk : chunks) specs += chunk->size();
  return specs;
}

// ---- SchedulerContext ------------------------------------------------------

bool SimCore::place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                         ServerId server) {
  return place(job, phase, task, server, /*speculative=*/false);
}

bool SimCore::place_speculative_copy(JobRuntime& job, PhaseRuntime& phase,
                                     TaskRuntime& task, ServerId server) {
  return place(job, phase, task, server, /*speculative=*/true);
}

bool SimCore::place_gang(JobRuntime& job, PhaseRuntime& phase) {
  SimStats& stats = result_.stats;
  if (phase.spec == nullptr || !phase.spec->gang) return false;
  if (job.finished || !job.arrived || !phase.runnable()) return false;
  if (phase.unscheduled_tasks == 0) return false;

  // Probe: tentatively reserve a best-fit server per pending task, in task
  // order.  Reservations go through the live cluster (and index) so every
  // subsequent query sees the gang's own footprint.  Nothing downstream of
  // the reservation happens yet — no RNG draw, no completion event, no
  // placement record — so a rollback is invisible to the decision stream
  // (only the placement-query trace records of the probe remain, exactly
  // like any other query that failed to turn into a placement).
  gang_scratch_.clear();
  bool complete = true;
  for (auto& task : phase.tasks) {
    if (!task.needs_placement()) continue;
    const ServerId server_id = best_fit_server(*this, task.demand);
    if (server_id == kInvalidServer) {
      complete = false;
      break;
    }
    Server& server = cluster_.server(static_cast<std::size_t>(server_id));
    if (!server.allocate(task.demand)) {
      complete = false;
      break;
    }
    index_.on_server_changed(server_id);
    gang_scratch_.emplace_back(&task, server_id);
  }

  if (!complete) {
    // All-or-nothing: release every tentative reservation, newest first.
    // Demands are added and subtracted as the exact same doubles, so the
    // cluster's used vectors return to their prior values bit for bit.
    for (auto it = gang_scratch_.rbegin(); it != gang_scratch_.rend(); ++it) {
      cluster_.server(static_cast<std::size_t>(it->second)).release(it->first->demand);
      index_.on_server_changed(it->second);
    }
    ++stats.gang_rollbacks;
    trace(TraceEv::kGangRollback, job.id, phase.index, -1, -1, -1,
          static_cast<std::int64_t>(gang_scratch_.size()));
    gang_scratch_.clear();
    return false;
  }

  // The wave's rack-spread penalty: every copy of a gang split across R
  // racks pays the all-reduce cost of crossing R-1 rack switches.
  gang_rack_scratch_.clear();
  for (const auto& [task, server_id] : gang_scratch_) {
    const int rack = cluster_.server(static_cast<std::size_t>(server_id)).rack();
    if (std::find(gang_rack_scratch_.begin(), gang_rack_scratch_.end(), rack) ==
        gang_rack_scratch_.end()) {
      gang_rack_scratch_.push_back(rack);
    }
  }
  const int racks = static_cast<int>(gang_rack_scratch_.size());
  phase.gang_penalty =
      1.0 + config_.gang_spread_penalty * static_cast<double>(racks - 1);

  // Commit: hand each reserved slot to the normal placement path for full
  // accounting/eventing.  Each reservation is released immediately before
  // place() re-allocates the identical demand on the identical server, so
  // place() cannot run out of capacity here.
  int placed = 0;
  for (const auto& [task, server_id] : gang_scratch_) {
    cluster_.server(static_cast<std::size_t>(server_id)).release(task->demand);
    index_.on_server_changed(server_id);
    if (!place(job, phase, *task, server_id, /*speculative=*/false)) {
      throw std::logic_error("SimCore: gang commit lost its reservation (job " +
                             std::to_string(job.id) + " phase " +
                             std::to_string(phase.index) + ")");
    }
    ++placed;
  }
  ++stats.gangs_placed;
  stats.gang_tasks_placed += placed;
  if (racks > 1) ++stats.gangs_split_across_racks;
  trace(TraceEv::kGangPlaced, job.id, phase.index, -1, -1, -1,
        (static_cast<std::int64_t>(racks) << 32) | static_cast<std::int64_t>(placed));
  gang_scratch_.clear();
  return true;
}

void SimCore::request_wakeup(SimTime slot) {
  ++result_.stats.timer_wakeups_requested;
  const SimTime target = std::max(slot, now_ + 1);
  if (target == pending_timer_slot_) return;  // already registered
  push_event(SimEvent{target, EvKind::kTimer});
  ++pending_timer_count_;
  pending_timer_slot_ = target;
  trace(TraceEv::kWakeupRequested, -1, -1, -1, -1, -1, target);
}

void SimCore::set_server_quarantined(ServerId server_id, bool quarantined) {
  Server& server = cluster_.server(static_cast<std::size_t>(server_id));
  if (server.is_quarantined() == quarantined) return;  // idempotent
  server.set_quarantined(quarantined);
  index_.on_server_changed(server_id);
  if (quarantined) {
    ++result_.stats.servers_quarantined;
    trace(TraceEv::kQuarantineEnter, -1, -1, -1, -1, server_id);
  } else {
    ++result_.stats.quarantine_exits;
    trace(TraceEv::kQuarantineExit, -1, -1, -1, -1, server_id);
  }
}

void SimCore::defer_retry(SimTime release_slot) {
  deferred_this_invocation_ = true;
  request_wakeup(release_slot);
}

int SimCore::live_servers() const {
  int live = 0;
  for (std::size_t s = 0; s < cluster_.size(); ++s) {
    if (cluster_.server(s).placeable()) ++live;
  }
  return live;
}

void SimCore::note_arrival_shed(JobId job, int tenant_class, int reason) {
  switch (reason) {
    case 0: ++result_.stats.arrivals_shed_admission; break;
    case 1: ++result_.stats.arrivals_shed_watermark; break;
    default: ++result_.stats.arrivals_shed_overload; break;
  }
  trace(TraceEv::kArrivalShed, job, -1, -1, -1, -1,
        (static_cast<std::int64_t>(reason) << 8) |
            static_cast<std::int64_t>(tenant_class));
}

void SimCore::note_overload_transition(int from_level, int to_level) {
  ++result_.stats.overload_transitions;
  result_.stats.overload_level_max =
      std::max<long long>(result_.stats.overload_level_max, to_level);
  trace(TraceEv::kOverloadLevelChanged, -1, -1, -1, -1, -1,
        (static_cast<std::int64_t>(to_level) << 8) |
            static_cast<std::int64_t>(from_level));
  overload_level_ = to_level;
}

void SimCore::note_retry_issued(long long backoff_slots) {
  ++result_.stats.retries_issued;
  result_.stats.backoff_slots_waited += backoff_slots;
}

void SimCore::note_clone_budget_degraded(int effective, int configured) {
  ++result_.stats.clone_budget_degradations;
  trace(TraceEv::kCloneBudgetDegraded, -1, -1, -1, -1, -1,
        (static_cast<std::int64_t>(effective) << 16) |
            static_cast<std::int64_t>(configured));
}

// ---- event plumbing --------------------------------------------------------

void SimCore::push_event(const SimEvent& event) {
  events_.push_back(event);
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

SimEvent SimCore::pop_event() {
  std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
  const SimEvent e = events_.back();
  events_.pop_back();
  return e;
}

void SimCore::push_completion(SimTime slot, JobRuntime& job, PhaseIndex phase,
                              std::int32_t task, std::int32_t copy,
                              std::uint32_t generation) {
  SimEvent e;
  e.slot = slot;
  e.kind = EvKind::kCompletion;
  e.job_index = job.slot;
  e.phase = phase;
  e.task = task;
  e.copy = copy;
  e.generation = generation;
  // Recycling bookkeeping: the slot cannot be reused while this event is in
  // flight (drain_completions decrements when it pops).
  ++job.pending_events;
  push_event(e);
}

void SimCore::push_machine_event(SimTime delay, MachineEv kind, std::int32_t target) {
  machine_.push({now_ + delay, target, kind});
}

void SimCore::push_copy_fault(SimTime slot) { push_event(SimEvent{slot, EvKind::kCopyFault}); }

void SimCore::trace(TraceEv type, JobId job, PhaseIndex phase, std::int32_t task,
                    std::int32_t copy, std::int32_t server, std::int64_t aux) {
  if (!rec_) return;
  TraceRecord r;
  r.slot = now_;
  r.type = type;
  r.job = job;
  r.phase = phase;
  r.task = task;
  r.copy = copy;
  r.server = server;
  r.aux = aux;
  rec_->append(r);
}

void SimCore::validate_placeable(const JobSpec& spec) const {
  for (const auto& phase : spec.phases) {
    bool fits_somewhere = false;
    for (const auto& server : cluster_.servers()) {
      if (phase.demand.fits_within(server.capacity())) {
        fits_somewhere = true;
        break;
      }
    }
    if (!fits_somewhere) {
      throw std::invalid_argument("Simulator: job " + std::to_string(spec.id) + " phase '" +
                                  phase.name + "' demand " + phase.demand.to_string() +
                                  " exceeds every server capacity");
    }
    // A gang phase must fit collectively on an otherwise-empty cluster or
    // it could never commit, deadlocking the run once it reaches the head.
    // All tasks share one demand, so the check is a per-server copy count.
    if (phase.gang && phase.task_count > 1) {
      long long slots = 0;
      for (const auto& server : cluster_.servers()) {
        long long per_server = -1;
        for (std::size_t d = 0; d < Resources::kMaxDims; ++d) {
          if (phase.demand[d] <= 0.0) continue;
          const auto fit = static_cast<long long>(
              server.capacity()[d] / phase.demand[d] + 1e-9);
          per_server = per_server < 0 ? fit : std::min(per_server, fit);
        }
        slots += per_server < 0 ? static_cast<long long>(phase.task_count) : per_server;
        if (slots >= phase.task_count) break;
      }
      if (slots < phase.task_count) {
        throw std::invalid_argument(
            "Simulator: job " + std::to_string(spec.id) + " gang phase '" + phase.name +
            "' (" + std::to_string(phase.task_count) + " tasks of " +
            phase.demand.to_string() + ") cannot fit on the cluster even when empty");
      }
    }
  }
}

// ---- placement and completion ---------------------------------------------

bool SimCore::place(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                    ServerId server_id, bool speculative) {
  SimStats& stats = result_.stats;
  ++stats.placement_attempts;
  if (job.finished || !job.arrived) {
    ++stats.rejected_job_not_ready;
    return false;
  }
  if (!phase.runnable() || task.finished) {
    ++stats.rejected_phase_not_runnable;
    return false;
  }
  // The cap applies to *concurrent* copies: after a machine failure kills a
  // task's copies it may be re-placed even though dead copies remain on
  // record.
  if (task.active_copies() >= config_.max_copies_per_task) {
    ++stats.rejected_copy_cap;
    return false;
  }
  if (server_id < 0 || static_cast<std::size_t>(server_id) >= cluster_.size()) {
    ++stats.rejected_invalid_server;
    return false;
  }

  Server& server = cluster_.server(static_cast<std::size_t>(server_id));
  if (!server.allocate(task.demand)) {
    ++stats.rejected_no_capacity;
    return false;
  }
  index_.on_server_changed(server_id);
  server.note_copy_started();
  ++stats.placements_accepted;

  const bool first_copy = task.copies.empty();
  // A task with no running copy is either brand new or a failure
  // re-execution; either way this placement satisfies its needs-placement
  // state (and is not redundancy, so it must not count as a clone).
  const bool had_active_sibling = task.active_copies() > 0;
  CopyRuntime copy;
  copy.server = server_id;
  copy.start = now_;
  copy.active = true;
  copy.locality = locality_.classify(task.block, server_id);

  if (config_.model == ExecutionModel::kStochastic) {
    const double base =
        sample_copy_base_seconds(phase, task.ref.task, first_copy, rng_exec_);
    // Fail-slow degradation multiplies the realized duration; the healthy
    // factor is exactly 1.0, so this is bit-identical when faults are off.
    double seconds =
        scale_copy_seconds(
            base, server.base_speed(), locality_.penalty(copy.locality),
            background_.slowdown(static_cast<std::size_t>(server_id),
                                 static_cast<double>(now_) * config_.slot_seconds)) *
        server.slow_factor();
    // Gang rack-spread penalty (guarded: exactly 1.0 for non-gang phases,
    // keeping the historical arithmetic untouched).
    if (phase.gang_penalty != 1.0) seconds *= phase.gang_penalty;
    copy.base_seconds = seconds;
    copy.finish = now_ + seconds_to_slots(seconds, config_.slot_seconds);
    task.copies.push_back(copy);
    push_completion(copy.finish, job, phase.index, task.ref.task,
                    static_cast<std::int32_t>(task.copies.size() - 1), 0);
  } else {
    // Work-based: roll accrued work to now, then re-predict with the larger
    // copy set and invalidate the previous prediction.
    accrue_work(task, phase, now_, config_.slot_seconds);
    task.copies.push_back(copy);
    ++task.generation;
    const SimTime finish = predict_work_finish(task, phase, now_, config_.slot_seconds);
    push_completion(finish, job, phase.index, task.ref.task, -1, task.generation);
  }

  ++active_copy_count_;
  ++phase.active_copies;
  if (!had_active_sibling) --phase.unscheduled_tasks;
  placed_this_invocation_ = true;

  if (task.first_start == kNever) task.first_start = now_;
  if (job.first_start == kNever) job.first_start = now_;
  if (had_active_sibling) {
    if (speculative) {
      ++job.speculative_launched;
    } else {
      ++job.clones_launched;
    }
    if (!task.ever_cloned && !speculative) {
      task.ever_cloned = true;
      ++job.tasks_with_clones;
    }
  }
  trace(!had_active_sibling ? TraceEv::kCopyPlaced
        : speculative       ? TraceEv::kSpeculativePlaced
                            : TraceEv::kClonePlaced,
        job.id, phase.index, task.ref.task,
        static_cast<std::int32_t>(task.copies.size() - 1), server_id,
        static_cast<std::int64_t>(task.copies.back().locality));
  ++result_.total_copies_launched;
  return true;
}

void SimCore::end_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                       CopyRuntime& copy, bool killed) {
  if (!copy.active) return;
  copy.active = false;
  copy.killed = killed;
  if (killed) {
    ++result_.stats.copies_killed;
  } else {
    ++result_.stats.copies_finished;
  }
  trace(killed ? TraceEv::kCopyKilled : TraceEv::kCopyFinished, job.id, phase.index,
        task.ref.task, static_cast<std::int32_t>(&copy - task.copies.data()),
        copy.server, now_ - copy.start);
  Server& server = cluster_.server(static_cast<std::size_t>(copy.server));
  server.release(task.demand);
  index_.on_server_changed(copy.server);
  server.note_copy_finished();
  --active_copy_count_;
  --phase.active_copies;
  const double duration_seconds =
      static_cast<double>(now_ - copy.start) * config_.slot_seconds;
  job.resource_seconds +=
      normalized_sum(task.demand, cluster_.total_capacity()) * duration_seconds;
}

void SimCore::complete_task(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task) {
  task.finished = true;
  task.finish_slot = now_;
  job.invalidate_remaining_cache();  // remaining_tasks is about to change
  ++result_.total_tasks_completed;
  trace(TraceEv::kTaskCompleted, job.id, phase.index, task.ref.task, -1, -1,
        task.total_copies());

  // Delay-assignment clone handling (Section 5): optionally keep the
  // best-locality sibling when a downstream phase will consume this task's
  // output; kill the rest.
  CopyRuntime* keep = nullptr;
  if (config_.kill_policy == CloneKillPolicy::kKeepBestLocality && phase.has_children) {
    for (auto& c : task.copies) {
      if (!c.active) continue;
      if (keep == nullptr ||
          static_cast<int>(c.locality) < static_cast<int>(keep->locality) ||
          (c.locality == keep->locality && c.start < keep->start)) {
        keep = &c;
      }
    }
  }
  for (auto& c : task.copies) {
    if (c.active && &c != keep) end_copy(job, phase, task, c, /*killed=*/true);
  }

  if (config_.record_tasks) {
    TaskRecord record;
    record.ref = task.ref;
    record.first_start_seconds = static_cast<double>(task.first_start) * config_.slot_seconds;
    record.finish_seconds = static_cast<double>(now_) * config_.slot_seconds;
    record.copies = task.total_copies();
    result_.tasks.push_back(record);
  }

  if (--phase.remaining_tasks == 0) complete_phase(job, phase);
}

void SimCore::complete_phase(JobRuntime& job, PhaseRuntime& phase) {
  phase.finished = true;
  phase.finish_slot = now_;
  job.invalidate_remaining_cache();
  trace(TraceEv::kPhaseCompleted, job.id, phase.index);
  // Unlock children (Eq. 7).
  for (auto& other : job.phases) {
    for (const auto parent : other.spec->parents) {
      if (parent == phase.index) --other.unfinished_parents;
    }
  }
  // Kept-for-locality copies of this phase are no longer useful once the
  // phase completes; terminate them so resources free up.
  for (auto& task : phase.tasks) {
    for (auto& c : task.copies) {
      if (c.active) end_copy(job, phase, task, c, /*killed=*/true);
    }
  }
  if (scheduler_ != nullptr) scheduler_->on_phase_completed(*this, job, phase);
  if (--job.remaining_phases == 0) complete_job(job);
}

void SimCore::complete_job(JobRuntime& job) {
  job.finished = true;
  job.finish_slot = now_;
  trace(TraceEv::kJobCompleted, job.id);
  if (scheduler_ != nullptr) scheduler_->on_job_completed(*this, job);
  --jobs_remaining_;
  ++totals_.jobs_completed;
  const double response_seconds =
      static_cast<double>(job.finish_slot - job.arrival) * config_.slot_seconds;
  totals_.response_seconds_sum += response_seconds;
  if (slo_ != nullptr) slo_->observe(response_seconds);
  totals_.makespan_seconds =
      std::max(totals_.makespan_seconds,
               static_cast<double>(job.finish_slot) * config_.slot_seconds);
  totals_.clones_launched += job.clones_launched;
  totals_.speculative_launched += job.speculative_launched;
  // Every phase is complete, so every copy has ended: hand the job's copy
  // extents back to the slab for the next arrival to reuse.  Stale heap
  // events referencing these copies are screened out by the finished-job
  // guard in drain_completions.
  for (auto& phase : job.phases) {
    for (auto& task : phase.tasks) task.copies.release_storage();
  }
}

void SimCore::handle_copy_finish(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                                 std::size_t copy_index) {
  CopyRuntime& copy = task.copies[copy_index];
  if (!copy.active || copy.finish != now_) return;  // stale (killed or rescheduled)
  end_copy(job, phase, task, copy, /*killed=*/false);
  // Feedback for online learning: only natural finishes are reported
  // (killed copies are censored by their surviving sibling).
  if (scheduler_ != nullptr && config_.model == ExecutionModel::kStochastic) {
    scheduler_->on_copy_finished(*this, job, phase, task, copy);
  }
  if (!task.finished) complete_task(job, phase, task);
  // else: a kept best-locality copy ran to completion; nothing more to do.
}

void SimCore::handle_work_event(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                                std::uint32_t generation) {
  if (task.finished || generation != task.generation) return;  // stale prediction
  accrue_work(task, phase, now_, config_.slot_seconds);
  if (task.work_done_seconds + 1e-9 < phase.spec->theta_seconds) {
    // Copy set shrank since prediction (cannot happen today: copies only
    // end at completion in the work model) — re-predict defensively.
    const SimTime finish = predict_work_finish(task, phase, now_, config_.slot_seconds);
    if (finish != kNever) {
      push_completion(finish, job, phase.index, task.ref.task, -1, task.generation);
    }
    return;
  }
  for (auto& c : task.copies) {
    if (c.active) end_copy(job, phase, task, c, /*killed=*/false);
  }
  complete_task(job, phase, task);
}

// ---- failures --------------------------------------------------------------

void SimCore::seed_failures() {
  if (!faults_) return;
  // begin() runs at slot 0, so the seeded delays are the timers' slots.
  const SimTime copy_fault = faults_->seed(machine_);
  if (copy_fault != kNever) push_copy_fault(copy_fault);
}

void SimCore::fail_server(ServerId server_id) {
  // Kill every running copy on the failed machine.  Tasks left with no
  // running copy fall back into the needs-placement pool so schedulers
  // re-place them (from the surviving input-block replica in the locality
  // model's terms).  Most crashes hit an idle server, where the walk would
  // kill nothing and call no hook.
  if (cluster_.server(static_cast<std::size_t>(server_id)).running_copies() == 0) return;
  for (JobRuntime* job : active_) {
    for (auto& phase : job->phases) {
      if (phase.active_copies == 0) continue;
      for (std::size_t t = 0; t < phase.tasks.size(); ++t) {
        TaskRuntime& task = phase.tasks[t];
        bool killed_any = false;
        for (auto& copy : task.copies) {
          if (copy.active && copy.server == server_id) {
            kill_copy_by_fault(*job, phase, task, copy);
            if (scheduler_ != nullptr) {
              scheduler_->on_copy_fault(*this, *job, phase, task, server_id);
            }
            killed_any = true;
          }
        }
        if (killed_any) requeue_after_fault(*job, phase, task, t);
      }
    }
  }
}

void SimCore::kill_copy_by_fault(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                                 CopyRuntime& copy) {
  if (config_.model == ExecutionModel::kWorkBased) {
    accrue_work(task, phase, now_, config_.slot_seconds);
  }
  end_copy(job, phase, task, copy, /*killed=*/true);
  ++result_.stats.copies_killed_by_faults;
  result_.stats.work_seconds_lost +=
      static_cast<double>(now_ - copy.start) * config_.slot_seconds;
}

void SimCore::requeue_after_fault(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                                  std::size_t t) {
  if (task.finished) return;
  if (config_.model == ExecutionModel::kWorkBased) {
    ++task.generation;
    const SimTime finish = predict_work_finish(task, phase, now_, config_.slot_seconds);
    if (finish != kNever) {
      push_completion(finish, job, phase.index, task.ref.task, -1, task.generation);
    }
  }
  if (task.needs_placement()) {
    ++phase.unscheduled_tasks;
    phase.first_unscheduled_hint =
        std::min(phase.first_unscheduled_hint, static_cast<int>(t));
  }
}

void SimCore::apply_server_down(ServerId server_id) {
  Server& server = cluster_.server(static_cast<std::size_t>(server_id));
  server.set_down(true);
  index_.on_server_changed(server_id);
  trace(TraceEv::kServerFailed, -1, -1, -1, -1, server_id);
  fail_server(server_id);
  if (scheduler_ != nullptr) scheduler_->on_server_failed(*this, server_id);
}

void SimCore::apply_server_up(ServerId server_id) {
  Server& server = cluster_.server(static_cast<std::size_t>(server_id));
  server.set_down(false);
  index_.on_server_changed(server_id);
  trace(TraceEv::kServerRepaired, -1, -1, -1, -1, server_id);
  if (scheduler_ != nullptr) scheduler_->on_server_repaired(*this, server_id);
}

void SimCore::drain_failures() {
  // Machine-state events come before everything else at a slot, as one
  // batch in (target, kind) order.  Every branch re-arms its fault process
  // unconditionally — even when the FaultEngine absorbed the edge (server
  // already down via another class, or a duplicate event) — so the
  // per-class timer chains stay self-sustaining and the failure stream's
  // draw order is a pure function of the pop order.  Every re-arm lies at
  // least one slot ahead, so none joins the batch being drained.
  while (!machine_.empty() && machine_.min_slot() <= now_) {
    machine_.take(machine_batch_);
    for (const MachineEvent& e : machine_batch_) {
      switch (e.kind) {
        case MachineEv::kServerRepair: {
          ++result_.stats.events_server_repair;
          if (faults_->mark_up(e.target, FaultClass::kCrash)) apply_server_up(e.target);
          push_machine_event(faults_->crash_failure_delay(), MachineEv::kServerFailure,
                             e.target);
          break;
        }
        case MachineEv::kServerFailure: {
          ++result_.stats.events_server_failure;
          if (faults_->mark_down(e.target, FaultClass::kCrash)) apply_server_down(e.target);
          push_machine_event(faults_->crash_repair_delay(), MachineEv::kServerRepair,
                             e.target);
          break;
        }
        case MachineEv::kRackRepair: {
          ++result_.stats.events_rack_repair;
          for (const ServerId member : faults_->rack_members(e.target)) {
            if (faults_->mark_up(member, FaultClass::kRack)) apply_server_up(member);
          }
          push_machine_event(faults_->rack_failure_delay(), MachineEv::kRackFailure,
                             e.target);
          break;
        }
        case MachineEv::kRackFailure: {
          ++result_.stats.events_rack_failure;
          for (const ServerId member : faults_->rack_members(e.target)) {
            if (faults_->mark_down(member, FaultClass::kRack)) apply_server_down(member);
          }
          push_machine_event(faults_->rack_repair_delay(), MachineEv::kRackRepair, e.target);
          break;
        }
        case MachineEv::kFailSlowRecover: {
          ++result_.stats.events_fail_slow_recover;
          cluster_.server(static_cast<std::size_t>(e.target)).set_slow_factor(1.0);
          trace(TraceEv::kServerRestored, -1, -1, -1, -1, e.target);
          if (scheduler_ != nullptr) scheduler_->on_server_restored(*this, e.target);
          push_machine_event(faults_->fail_slow_onset_delay(), MachineEv::kFailSlowOnset,
                             e.target);
          break;
        }
        case MachineEv::kFailSlowOnset: {
          ++result_.stats.events_fail_slow_onset;
          const double factor = faults_->slowdown_factor();
          cluster_.server(static_cast<std::size_t>(e.target)).set_slow_factor(factor);
          trace(TraceEv::kServerDegraded, -1, -1, -1, -1, e.target,
                static_cast<std::int64_t>(factor * 100.0));
          if (scheduler_ != nullptr) scheduler_->on_server_degraded(*this, e.target, factor);
          push_machine_event(faults_->fail_slow_recovery_delay(), MachineEv::kFailSlowRecover,
                             e.target);
          break;
        }
      }
    }
  }
}

void SimCore::inject_copy_fault() {
  ++result_.stats.events_copy_fault;
  if (active_copy_count_ > 0) {
    // Uniform victim among all running copies: walk the active jobs in
    // deterministic (arrival) order counting down to the picked index.
    long long k = static_cast<long long>(
        faults_->pick(static_cast<std::size_t>(active_copy_count_)));
    [&] {
      for (JobRuntime* job : active_) {
        for (auto& phase : job->phases) {
          if (phase.active_copies == 0) continue;
          if (k >= phase.active_copies) {
            k -= phase.active_copies;
            continue;
          }
          for (std::size_t t = 0; t < phase.tasks.size(); ++t) {
            TaskRuntime& task = phase.tasks[t];
            for (auto& copy : task.copies) {
              if (!copy.active) continue;
              if (k-- > 0) continue;
              const auto copy_index = static_cast<std::int32_t>(&copy - task.copies.data());
              const ServerId server_id = copy.server;
              kill_copy_by_fault(*job, phase, task, copy);
              // end_copy already recorded the kill itself; this record
              // names the cause.
              trace(TraceEv::kCopyFault, job->id, phase.index, task.ref.task,
                    copy_index, server_id);
              if (scheduler_ != nullptr) {
                scheduler_->on_copy_fault(*this, *job, phase, task, server_id);
              }
              requeue_after_fault(*job, phase, task, t);
              return;
            }
          }
        }
      }
    }();
  }
  // Re-arm the cluster-wide timer whether or not a victim existed, so the
  // process keeps ticking through idle stretches.
  push_copy_fault(now_ + faults_->copy_fault_delay());
}

// ---- per-slot draining -----------------------------------------------------

void SimCore::process_arrivals() {
  while (next_arrival_ < arrival_order_.size()) {
    JobRuntime& job = jobs_[static_cast<std::size_t>(arrival_order_[next_arrival_])];
    if (job.arrival > now_) break;
    job.arrived = true;
    active_.push_back(&job);
    trace(TraceEv::kJobArrival, job.id);
    ++result_.stats.events_job_arrival;
    ++next_arrival_;
    arrivals_this_slot_ = true;
  }
}

void SimCore::drain_completions() {
  while (!events_.empty() && events_.front().slot <= now_) {
    const SimEvent e = pop_event();
    if (e.kind == EvKind::kTimer) {
      ++result_.stats.events_timer;
      --pending_timer_count_;
      if (pending_timer_slot_ == e.slot) pending_timer_slot_ = kNever;
      trace(TraceEv::kTimerFired);
      continue;  // a timer's only effect is that this slot is visited
    }
    if (e.kind == EvKind::kCopyFault) {
      // Pops after the slot's machine events and before its completions: a
      // victim's same-slot natural finish is stale by the time it pops.
      inject_copy_fault();
      continue;
    }
    JobRuntime& job = jobs_[static_cast<std::size_t>(e.job_index)];
    if (job.finished) {
      // The job's copy extents were recycled at completion; every event
      // still in flight for it was already stale (inactive copy or moved-on
      // generation), so count it and move on without touching copy storage.
      ++(e.copy >= 0 ? result_.stats.events_copy_finish
                     : result_.stats.events_work_finish);
      --job.pending_events;
      maybe_recycle(job);
      continue;
    }
    PhaseRuntime& phase = job.phases[static_cast<std::size_t>(e.phase)];
    TaskRuntime& task = phase.tasks[static_cast<std::size_t>(e.task)];
    if (e.copy >= 0) {
      ++result_.stats.events_copy_finish;
      handle_copy_finish(job, phase, task, static_cast<std::size_t>(e.copy));
    } else {
      ++result_.stats.events_work_finish;
      handle_work_event(job, phase, task, e.generation);
    }
    --job.pending_events;
    maybe_recycle(job);
  }
}

void SimCore::sample_utilization() {
  if (!config_.record_utilization) return;
  const Resources used = cluster_.total_used();
  const Resources total = cluster_.total_capacity();
  UtilizationSample sample;
  sample.seconds = static_cast<double>(now_) * config_.slot_seconds;
  sample.cpu = total.cpu() > 0 ? used.cpu() / total.cpu() : 0.0;
  sample.mem = total.mem() > 0 ? used.mem() / total.mem() : 0.0;
  result_.utilization.push_back(sample);
}

// ---- checkpoint / restore --------------------------------------------------

void SimCore::save_state(StateWriter& w) const {
  // The server table and the runtime store are nearly all of the payload:
  // size the buffer once instead of regrowing it through them.
  w.reserve(cluster_.table().memory_bytes() + store_.memory_bytes());
  w.section(kTagCore);
  w.i64(now_);
  w.b(first_visit_);
  w.b(streaming_);
  w.i32(jobs_remaining_);
  w.i64(active_copy_count_);
  w.b(placed_this_invocation_);
  w.b(deferred_this_invocation_);
  w.b(arrivals_this_slot_);
  w.u64(pending_timer_count_);
  w.i64(pending_timer_slot_);
  for (const Rng* rng : {&rng_root_, &rng_workload_, &rng_exec_, &rng_policy_,
                         &rng_failure_}) {
    for (const std::uint64_t word : rng->state()) w.u64(word);
  }

  w.section(kTagCluster);
  cluster_.save_state(w);
  w.b(faults_.has_value());
  if (faults_) faults_->save_state(w);
  w.section(kTagBackground);
  background_.save_state(w);

  // Per-slot JobSpecs: the runtime records reference them by pointer, so a
  // restored core owns deserialized copies.  Free (recycled) slots get a
  // shape-matching placeholder — their nulled spec pointer must not be
  // dereferenced, and the restore path re-releases them anyway.
  const std::vector<std::uint8_t> free = store_.free_mask();
  w.section(kTagSpecs);
  w.u64(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (free[i] != 0) {
      save_job_spec(w, placeholder_spec(jobs_[i]));
    } else {
      save_job_spec(w, *jobs_[i].spec);
    }
  }
  store_.save_state(w);

  w.section(kTagArrivals);
  w.u64(arrival_order_.size() - next_arrival_);
  for (std::size_t i = next_arrival_; i < arrival_order_.size(); ++i) {
    w.i32(arrival_order_[i]);
  }
  w.u64(active_.size());
  for (const JobRuntime* j : active_) {
    w.i32(j->slot);
  }

  // The heap array as it stands, then the machine queue's floor and its
  // buckets in order.  Re-pushing both in stored order rebuilds the
  // identical array (every element already sits below its parent) and the
  // identical buckets (each event lands where it was), and both orders are
  // total over every payload field, so the pop sequence is the
  // uninterrupted run's (docs/ALGORITHMS.md §19).
  w.section(kTagHeap);
  w.pod_vec(events_);
  machine_.save_state(w);

  w.b(rec_ != nullptr);
  if (rec_) {
    w.u64(rec_->records_written());
    w.u64(rec_->hash());
  }

  w.section(kTagStats);
  w.pod(result_.stats);
  w.i64(result_.total_copies_launched);
  w.i64(result_.total_tasks_completed);
  w.pod(totals_);

  // Length-prefixed scheduler blob so a policy-switch restore can skip it
  // without knowing the writing policy's format.
  w.section(kTagScheduler);
  const std::size_t len_at = w.reserve_u64();
  const std::size_t before = w.size();
  scheduler_->save_state(w);
  w.patch_u64(len_at, w.size() - before);
}

void SimCore::validate_event(const SimEvent& e,
                             const std::vector<std::uint8_t>& free_slots) const {
  const auto reject = [](const std::string& what) {
    throw std::runtime_error("snapshot: event " + what);
  };
  const auto kind = static_cast<int>(e.kind);
  if (kind >= kEvKinds) {
    reject("kind " + std::to_string(kind) + " outside the " + std::to_string(kEvKinds) +
           " kinds");
  }
  if (e.slot <= now_) {
    reject("slot " + std::to_string(e.slot) + " not after the saved clock " +
           std::to_string(now_));
  }
  if (e.kind != EvKind::kCompletion) {
    // Timers and the copy-fault timer carry nothing but their slot.
    if (e.job_index != -1 || e.phase != -1 || e.task != -1 || e.copy != -1 ||
        e.generation != 0) {
      reject("timer of kind " + std::to_string(kind) + " carries a job payload");
    }
    if (e.kind == EvKind::kCopyFault && !faults_) {
      reject("copy-fault timer without a fault engine");
    }
    return;
  }
  if (e.job_index < 0 || static_cast<std::size_t>(e.job_index) >= jobs_.size()) {
    reject("job index " + std::to_string(e.job_index) + " outside the " +
           std::to_string(jobs_.size()) + " job slots");
  }
  const auto slot = static_cast<std::size_t>(e.job_index);
  if (free_slots[slot] != 0) {
    reject("job index " + std::to_string(slot) + " names a recycled slot");
  }
  const JobRuntime& job = jobs_[slot];
  if (e.phase < 0 || static_cast<std::size_t>(e.phase) >= job.phases.size()) {
    reject("phase " + std::to_string(e.phase) + " outside job slot " + std::to_string(slot) +
           "'s " + std::to_string(job.phases.size()) + " phases");
  }
  const PhaseRuntime& phase = job.phases[static_cast<std::size_t>(e.phase)];
  if (e.task < 0 || static_cast<std::size_t>(e.task) >= phase.tasks.size()) {
    reject("task " + std::to_string(e.task) + " outside phase " + std::to_string(e.phase) +
           "'s " + std::to_string(phase.tasks.size()) + " tasks");
  }
  // A finished job's copy storage is released; its events pop as stale
  // without reading it.
  const std::size_t copies = phase.tasks[static_cast<std::size_t>(e.task)].copies.size();
  if (!job.finished &&
      (e.copy < -1 || (e.copy >= 0 && static_cast<std::size_t>(e.copy) >= copies))) {
    reject("copy " + std::to_string(e.copy) + " outside the task's " + std::to_string(copies) +
           " copies");
  }
}

void SimCore::load_state(StateReader& r, bool load_scheduler, const SimCore* parent) {
  if (!started_) throw std::logic_error("SimCore: load_state() before begin()");
  r.section(kTagCore);
  now_ = r.i64();
  first_visit_ = r.b();
  streaming_ = r.b();
  jobs_remaining_ = r.i32();
  active_copy_count_ = r.i64();
  placed_this_invocation_ = r.b();
  deferred_this_invocation_ = r.b();
  arrivals_this_slot_ = r.b();
  pending_timer_count_ = static_cast<std::size_t>(r.u64());
  pending_timer_slot_ = r.i64();
  for (Rng* rng : {&rng_root_, &rng_workload_, &rng_exec_, &rng_policy_, &rng_failure_}) {
    std::array<std::uint64_t, 4> words;
    for (auto& word : words) word = r.u64();
    rng->set_state(words);
  }

  r.section(kTagCluster);
  cluster_.load_state(r);
  const bool had_faults = r.b();
  if (had_faults != faults_.has_value()) {
    throw std::runtime_error(
        std::string("snapshot: fault configuration mismatch (snapshot ") +
        (had_faults ? "has" : "lacks") + " a fault engine)");
  }
  if (faults_) faults_->load_state(r);
  r.section(kTagBackground);
  background_.load_state(r);

  // The parsed specs are one chunk, like an ingest's.  A fork's live slots
  // share the parent's chunks instead: the stream copy only advanced the
  // reader.
  r.section(kTagSpecs);
  const std::size_t slot_count = r.count("job spec", kMinJobSpecBytes);
  auto parsed = std::make_shared<std::vector<JobSpec>>();
  parsed->reserve(slot_count);
  for (std::size_t i = 0; i < slot_count; ++i) parsed->push_back(load_job_spec(r));
  slot_specs_.assign(slot_count, parsed);
  std::vector<const JobSpec*> specs(slot_count);
  for (std::size_t i = 0; i < slot_count; ++i) {
    specs[i] = &(*parsed)[i];
    if (parent != nullptr && i < parent->slot_specs_.size() && parent->slot_specs_[i]) {
      slot_specs_[i] = parent->slot_specs_[i];
      specs[i] = parent->jobs_[i].spec;
    }
  }
  store_.load_state(r, specs);
  const std::vector<std::uint8_t> free_slots = store_.free_mask();
  for (std::size_t i = 0; i < slot_count; ++i) {
    if (free_slots[i] != 0) slot_specs_[i].reset();
  }

  r.section(kTagArrivals);
  const auto job_slot = [&](std::int32_t index, const char* what) {
    if (index < 0 || static_cast<std::size_t>(index) >= jobs_.size()) {
      throw std::runtime_error(std::string("snapshot: ") + what + " job index " +
                               std::to_string(index) + " outside the " +
                               std::to_string(jobs_.size()) + " job slots");
    }
    return static_cast<std::size_t>(index);
  };
  arrival_order_.resize(r.count("pending arrival", sizeof(std::int32_t)));
  for (auto& index : arrival_order_) {
    index = r.i32();
    (void)job_slot(index, "pending arrival");
  }
  next_arrival_ = 0;
  active_.resize(r.count("active job", sizeof(std::int32_t)));
  for (auto& job : active_) job = jobs_.data() + job_slot(r.i32(), "active");

  r.section(kTagHeap);
  std::vector<SimEvent> stored;
  r.pod_vec(stored);
  std::size_t timers = 0;
  events_.clear();
  events_.reserve(stored.size());
  for (const SimEvent& e : stored) {
    validate_event(e, free_slots);
    if (e.kind == EvKind::kTimer) ++timers;
    push_event(e);
  }
  if (timers != pending_timer_count_) {
    throw std::runtime_error("snapshot: " + std::to_string(timers) +
                             " timer events but a pending timer count of " +
                             std::to_string(pending_timer_count_));
  }
  // Each live job counts its queued completions (the recycling guard).
  std::vector<std::int64_t> queued(jobs_.size(), 0);
  for (const SimEvent& e : events_) {
    if (e.kind == EvKind::kCompletion) ++queued[static_cast<std::size_t>(e.job_index)];
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (queued[i] != jobs_[i].pending_events) {
      throw std::runtime_error("snapshot: job slot " + std::to_string(i) + " has " +
                               std::to_string(queued[i]) + " queued completions but counts " +
                               std::to_string(jobs_[i].pending_events));
    }
  }
  // Without a fault engine no machine event may exist: zero targets.
  machine_.load_state(r, now_, faults_ ? cluster_.size() : 0,
                      faults_ ? static_cast<std::size_t>(faults_->rack_count()) : 0);

  const bool had_recorder = r.b();
  std::uint64_t rec_records = 0;
  std::uint64_t rec_hash = 0;
  if (had_recorder) {
    rec_records = r.u64();
    rec_hash = r.u64();
  }
  if (rec_ != nullptr) {
    if (!had_recorder) {
      throw std::runtime_error(
          "snapshot: recorder stream missing (snapshot was taken without a recorder)");
    }
    rec_->restore_stream(rec_records, rec_hash);
  }

  r.section(kTagStats);
  r.pod(result_.stats);
  result_.total_copies_launched = r.i64();
  result_.total_tasks_completed = r.i64();
  r.pod(totals_);

  // The placement index is derived state: rebuild it from the restored
  // cluster.
  index_ = PlacementIndex(cluster_);

  r.section(kTagScheduler);
  const std::uint64_t blob_len = r.u64();
  if (load_scheduler) {
    const std::size_t before = r.remaining();
    scheduler_->load_state(r);
    if (before - r.remaining() != blob_len) {
      throw std::runtime_error("snapshot: scheduler blob length mismatch");
    }
  } else {
    r.skip(static_cast<std::size_t>(blob_len));
  }
}

}  // namespace dollymp
