#include "dollymp/sched/dollymp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/state_io.h"
#include "dollymp/obs/recorder.h"

namespace dollymp {

DollyMPScheduler::DollyMPScheduler(DollyMPConfig config) : config_(config) {
  if (config_.clone_budget < 0) {
    throw std::invalid_argument("DollyMP: clone_budget must be >= 0");
  }
}

std::string DollyMPScheduler::name() const {
  return "dollymp^" + std::to_string(config_.clone_budget);
}

void DollyMPScheduler::reset() {
  // Invalidate every cached priority entry in O(1): entries are valid only
  // for the current epoch, so bumping it (monotonically — epoch 0 is never
  // a written epoch) retires them all without deallocating the buffers.
  ++epoch_;
  priorities_dirty_ = false;
  scorer_.reset();
  index_weights_stale_ = false;
  resilience_.reset();
}

ResiliencePolicy* DollyMPScheduler::live_resilience(SchedulerContext& ctx) {
  if (!config_.resilience.enabled) return nullptr;
  if (!resilience_) resilience_.emplace(config_.resilience, ctx.cluster().size());
  return &*resilience_;
}

void DollyMPScheduler::on_copy_fault(SchedulerContext& ctx, const JobRuntime& /*job*/,
                                     const PhaseRuntime& /*phase*/,
                                     const TaskRuntime& task, ServerId server) {
  if (ResiliencePolicy* res = live_resilience(ctx)) res->on_copy_fault(ctx, task, server);
}

void DollyMPScheduler::on_server_failed(SchedulerContext& ctx, ServerId server) {
  if (ResiliencePolicy* res = live_resilience(ctx)) res->on_server_failed(ctx, server);
}

void DollyMPScheduler::on_server_repaired(SchedulerContext& ctx, ServerId server) {
  if (ResiliencePolicy* res = live_resilience(ctx)) res->on_server_repaired(ctx, server);
}

bool DollyMPScheduler::priority_known(std::size_t slot) const {
  return epoch_ > 0 && slot < cache_.size() && cache_[slot].epoch == epoch_;
}

void DollyMPScheduler::on_copy_finished(SchedulerContext& ctx, const JobRuntime& /*job*/,
                                        const PhaseRuntime& phase,
                                        const TaskRuntime& /*task*/,
                                        const CopyRuntime& copy) {
  if (!config_.straggler_aware) return;
  if (!scorer_) scorer_.emplace(ctx.cluster().size());
  const double actual_seconds =
      static_cast<double>(ctx.now() - copy.start) * ctx.slot_seconds();
  scorer_->observe(copy.server, phase.spec->theta_seconds, actual_seconds);
  // Mirror the updated weight into the placement index, whose weighted
  // query scores with the scorer's multipliers.  observe() touches only
  // copy.server's estimate, so pushing that one weight keeps the mirror
  // complete (cold servers stay at the index's default multiplier
  // 1.0 == 1 / prior_slowdown).
  ctx.placement_index()->set_multiplier(copy.server,
                                        scorer_->placement_weight(copy.server));
}

void DollyMPScheduler::recompute_priorities(SchedulerContext& ctx) {
  const auto& jobs = ctx.active_jobs();
  const Resources total = ctx.cluster().total_capacity();
  const double slot = ctx.slot_seconds();

  inputs_.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRuntime* job = jobs[i];
    PriorityJobInput in;
    in.volume = job->remaining_volume(total, config_.sigma_factor) / slot;
    in.length = job->remaining_length(config_.sigma_factor) / slot;
    in.dominant = job->max_dominant_share(total);
    if (config_.corollary_clone_counts && config_.clone_budget > 0) {
      // Corollary 4.1: with up to (1 + budget) concurrent copies a job's
      // tasks finish h(1+budget) times faster in expectation, so the job
      // qualifies for the earlier class l with e_j / h <= 2^l; the clone
      // pass then launches exactly the copies needed to meet that window.
      double min_speedup = std::numeric_limits<double>::infinity();
      for (const auto& phase : job->phases) {
        if (phase.finished) continue;
        min_speedup = std::min(min_speedup, phase.speedup(1.0 + config_.clone_budget));
      }
      if (std::isfinite(min_speedup) && min_speedup > 1.0) in.length /= min_speedup;
    }
    inputs_[i] = in;
  }
  const PriorityResult result = compute_transient_priorities(inputs_);

  // Open a new epoch: every pre-existing entry becomes stale at once, then
  // the active jobs are written fresh.  Equivalent to clearing and refilling
  // the old hash maps, without the rehash/allocation churn.
  ++epoch_;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto job_slot = static_cast<std::size_t>(jobs[i]->slot);
    // Grows only when a job lands in a new highest slot, never in the
    // steady-state schedule() path.
    if (job_slot >= cache_.size()) cache_.resize(job_slot + 1);
    cache_[job_slot] = {epoch_, inputs_[i].volume, result.priority[i]};
  }
}

void DollyMPScheduler::on_job_arrival(SchedulerContext& ctx) { recompute_priorities(ctx); }

void DollyMPScheduler::on_job_completed(SchedulerContext& /*ctx*/, const JobRuntime& /*job*/) {
  // The typed completion event replaces the old "did active_jobs() shrink
  // since my last recompute?" size check: mark the cached priorities stale
  // and refresh lazily at the next schedule() call (which the simulator
  // guarantees happens in the same slot, after the job leaves the active
  // set).
  if (config_.recompute_on_completion) priorities_dirty_ = true;
}

void DollyMPScheduler::rebuild_order(SchedulerContext& ctx) {
  order_.clear();
  order_.reserve(ctx.active_jobs().size());
  for (JobRuntime* job : ctx.active_jobs()) {
    JobOrder jo;
    jo.job = job;
    const auto slot = static_cast<std::size_t>(job->slot);
    jo.has_priority = priority_known(slot);
    jo.priority = jo.has_priority ? cache_[slot].priority : 1 << 20;
    jo.volume = jo.has_priority ? cache_[slot].volume : 0.0;
    order_.push_back(jo);
  }
  // The comparator is a strict total order (job ids are unique), so plain
  // sort yields the same permutation stable_sort did — without its
  // temporary-buffer allocation on every call.
  std::sort(order_.begin(), order_.end(), [](const JobOrder& a, const JobOrder& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.volume != b.volume) return a.volume < b.volume;
    return a.job->id < b.job->id;
  });
}

namespace {

// Flight-recorder record for DollyMP's weighted pick (TraceEv query kind 3):
// chosen server plus the weighted score the pick maximized.
void trace_weighted_pick(SchedulerContext& ctx, const TaskRuntime& task,
                         ServerId chosen, double score) {
  Recorder* rec = ctx.recorder();
  if (rec == nullptr) return;
  TraceRecord r;
  r.slot = ctx.now();
  r.type = TraceEv::kPlacementQuery;
  r.task = task.ref.task;
  r.server = chosen;
  r.aux = 3;
  r.score = score;
  rec->append(r);
}

}  // namespace

ServerId DollyMPScheduler::pick_server(SchedulerContext& ctx, const TaskRuntime& task) const {
  if (config_.straggler_aware && scorer_ && scorer_->size() == ctx.cluster().size()) {
    // Straggler-aware placement: best resource fit, discounted by the
    // learned slowdown estimate, with a bonus for input-replica locality.
    // The placement index keeps a mirror of the scorer's weights (pushed in
    // on_copy_finished) and maximizes demand.dot(free) x weight (x 1.25 on
    // a replica), ties to the lowest id.
    const ServerId chosen =
        ctx.placement_index()->weighted_best_fit(task.demand, &task.block);
    if (ctx.recorder() != nullptr) {
      double score = 0.0;
      if (chosen != kInvalidServer) {
        const auto& server = ctx.cluster().server(static_cast<std::size_t>(chosen));
        score = task.demand.dot(server.free()) * scorer_->placement_weight(chosen);
        for (const auto replica : task.block.replicas) {
          if (replica == chosen) {
            score *= 1.25;
            break;
          }
        }
      }
      trace_weighted_pick(ctx, task, chosen, score);
    }
    return chosen;
  }
  // Node-local first: the first replica holder that fits wins outright.
  for (const auto replica : task.block.replicas) {
    const auto& server = ctx.cluster().server(static_cast<std::size_t>(replica));
    if (server.can_fit(task.demand)) {
      trace_weighted_pick(ctx, task, replica, task.demand.dot(server.free()));
      return replica;
    }
  }
  return best_fit_server(ctx, task.demand);
}

int DollyMPScheduler::place_new_tasks(SchedulerContext& ctx) {
  // Walk priority classes in order; inside a class jobs are already sorted
  // by remaining volume (the knapsack oracle treats members of a class
  // equally, so smallest-volume-first is the natural ordering), and every
  // copy individually lands on its best-fit server (the inner-product tie
  // break of Algorithm 2, step 12).  A full per-placement re-scan of the
  // class for the single globally best-fitting task would be quadratic in
  // cluster size; per-task best-fit keeps the same packing signal at
  // O(placements x servers).
  int placed_total = 0;
  for (auto& jo : order_) {
    JobRuntime& job = *jo.job;
    if (job.finished) continue;
    placed_total += place_gang_phases(ctx, job);
    for (auto& phase : job.phases) {
      if (!phase.runnable()) continue;
      while (TaskRuntime* task = next_unscheduled_task(phase)) {
        const ServerId server = pick_server(ctx, *task);
        if (server == kInvalidServer) break;  // identical siblings will not fit either
        if (!ctx.place_copy(job, phase, *task, server)) break;
        ++placed_total;
      }
    }
  }
  return placed_total;
}

int DollyMPScheduler::place_new_tasks_resilient(SchedulerContext& ctx) {
  // Same priority order and per-task placement as place_new_tasks, but
  // tasks under a retry-backoff hold are skipped (and their earliest
  // release recorded for defer_retry) instead of placed.  This path cannot
  // use next_unscheduled_task: its monotone cursor would advance past a
  // held task and never revisit it.  Deferral is recorded even after
  // capacity runs out, so the policy never misses the backoff wakeup.
  int placed_total = 0;
  const SimTime now = ctx.now();
  for (auto& jo : order_) {
    JobRuntime& job = *jo.job;
    if (job.finished) continue;
    placed_total += place_gang_phases(ctx, job);
    for (auto& phase : job.phases) {
      if (!phase.runnable() || phase.unscheduled_tasks == 0) continue;
      if (phase.spec->gang) continue;  // offered atomically above
      bool capacity_exhausted = false;
      const auto first =
          static_cast<std::size_t>(std::max(phase.first_unscheduled_hint, 0));
      for (std::size_t t = first; t < phase.tasks.size(); ++t) {
        TaskRuntime& task = phase.tasks[t];
        if (!task.needs_placement()) continue;
        if (resilience_->should_defer(task, now)) continue;
        if (capacity_exhausted) continue;
        const ServerId server = pick_server(ctx, task);
        if (server == kInvalidServer) {
          capacity_exhausted = true;  // identical siblings will not fit either
          continue;
        }
        if (!ctx.place_copy(job, phase, task, server)) {
          capacity_exhausted = true;
          continue;
        }
        ++placed_total;
      }
    }
  }
  return placed_total;
}

int DollyMPScheduler::place_clones(SchedulerContext& ctx, int clone_budget) {
  if (clone_budget == 0) return 0;
  const int copy_cap = std::min(1 + clone_budget, ctx.config().max_copies_per_task);

  // Section 4.1's rule: clone small jobs "when the total amount of consumed
  // resources under cloning is less than the resource demand of other
  // jobs".  When no job is waiting for resources, leftover capacity is
  // free and every running task may be cloned; when jobs are queued, every
  // clone-second is stolen from a waiting task, so only overdue copies —
  // where the heavy-tail conditional gain is large — justify the cost.
  bool anyone_waiting = false;
  for (const JobOrder& jo : order_) {
    for (const auto& phase : jo.job->phases) {
      if (phase.runnable() && phase.unscheduled_tasks > 0) {
        anyone_waiting = true;
        break;
      }
    }
    if (anyone_waiting) break;
  }

  int placed = 0;
  auto clone_pass = [&](JobOrder& jo) {
    JobRuntime& job = *jo.job;
    if (job.finished) return;
    for (auto& phase : job.phases) {
      if (!phase.runnable() || phase.active_copies == 0) continue;
      // Clone only once every task of the phase has been scheduled — in the
      // YARN implementation an AM launches clones "when RM allocates more
      // containers than the number of pending tasks" (Section 5.2), which
      // naturally targets the phase's final wave: the stragglers holding
      // the phase barrier.  Cloning earlier waves would only halve the
      // phase's throughput.
      if (phase.unscheduled_tasks > 0) continue;
      // Within a phase, clone the longest-running copies first: under the
      // heavy-tailed duration model a task's conditional remaining time
      // grows with its elapsed time, so the oldest running tasks are the
      // likeliest stragglers and the min-of-copies gain is largest there.
      // Corollary 4.1's clone budget: within priority class l (window
      // 2^l slots), a task needs exactly r_j = min{r : 2^l h(r) >= theta}
      // concurrent copies to meet the window — more cannot help it, fewer
      // may miss it.  The restriction only matters when resources are
      // contested; with an idle queue the flat budget applies (Section
      // 4.1's free-cloning rule).
      int phase_cap = copy_cap;
      if (config_.corollary_clone_counts && anyone_waiting && jo.has_priority) {
        // jo.has_priority guards against the 1 << 20 not-yet-prioritized
        // sentinel reaching ldexp, matching the old hash-map lookup miss.
        const double window_seconds = std::ldexp(1.0, jo.priority) * ctx.slot_seconds();
        const int needed =
            phase.speedup.min_copies_for(phase.spec->theta_seconds, window_seconds);
        if (needed > 0) phase_cap = std::min(copy_cap, std::max(1, needed));
      }
      candidates_.clear();
      for (auto& task : phase.tasks) {
        if (task.finished || !task.running()) continue;
        if (task.total_copies() >= phase_cap) continue;
        if (anyone_waiting) {
          // Launch-time clones (same slot as the original — the Section 3
          // model where "all clones of a task are launched at the same
          // time") and overdue-straggler clones carry the payoff; mid-life
          // clones of healthy tasks only burn contested resources.
          const double elapsed =
              static_cast<double>(ctx.now() - task.first_start) * ctx.slot_seconds();
          const bool launch_time = task.first_start == ctx.now();
          if (!launch_time && elapsed < phase.spec->theta_seconds) continue;
        }
        candidates_.push_back(&task);
      }
      // Candidates are pushed in ascending task index, so breaking
      // first_start ties on task index makes this total order sort exactly
      // as the previous stable_sort (and allocation-free).
      std::sort(candidates_.begin(), candidates_.end(),
                [](const TaskRuntime* a, const TaskRuntime* b) {
                  if (a->first_start != b->first_start) return a->first_start < b->first_start;
                  return a->ref.task < b->ref.task;
                });
      for (TaskRuntime* task : candidates_) {
        const ServerId server = pick_server(ctx, *task);
        if (server == kInvalidServer) continue;
        if (ctx.place_copy(job, phase, *task, server)) ++placed;
      }
    }
  };

  if (config_.smallest_first_clones) {
    for (auto& jo : order_) clone_pass(jo);
  } else {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) clone_pass(*it);
  }
  return placed;
}

void DollyMPScheduler::schedule(SchedulerContext& ctx) {
  if (index_weights_stale_) {
    // load_state restored the learned scores, but the simulator rebuilt its
    // placement index from the cluster with every multiplier at 1.0.  Push
    // the whole mirror before the first placement so the weighted query
    // scores exactly as it did before the snapshot.
    if (scorer_ && scorer_->size() == ctx.cluster().size()) {
      PlacementIndex* index = ctx.placement_index();
      for (std::size_t id = 0; id < scorer_->size(); ++id) {
        const auto server = static_cast<ServerId>(id);
        index->set_multiplier(server, scorer_->placement_weight(server));
      }
    }
    index_weights_stale_ = false;
  }
  ResiliencePolicy* res = live_resilience(ctx);
  if (res != nullptr) res->begin_invocation(ctx);
  if (priorities_dirty_) {
    recompute_priorities(ctx);
    priorities_dirty_ = false;
  }
  rebuild_order(ctx);
  // Graceful degradation: shrink the clone budget when live capacity is
  // below the watermark — redundancy yields to first copies under duress.
  int clone_budget = config_.clone_budget;
  if (res != nullptr) {
    clone_budget = res->degraded_clone_budget(ctx, config_.clone_budget);
  }
  // Overload ladder (service mode): cloning inflates effective utilization
  // exactly when the system is saturated, so level 1 halves the configured
  // budget and level >= 2 suspends cloning outright.  Level 0 — every batch
  // run — leaves the budget untouched.
  const int overload = ctx.overload_level();
  if (overload >= 1) {
    clone_budget = std::min(clone_budget, overload >= 2 ? 0 : config_.clone_budget / 2);
  }
  if (clone_budget < config_.clone_budget) {
    ctx.note_clone_budget_degraded(clone_budget, config_.clone_budget);
  }
  if (res != nullptr) {
    place_new_tasks_resilient(ctx);
  } else {
    place_new_tasks(ctx);
  }
  // "Repeat Step 9 twice if there are available resources" — each extra
  // pass may add one more clone per task up to the budget.
  for (int pass = 0; pass < clone_budget; ++pass) {
    if (place_clones(ctx, clone_budget) == 0) break;
  }
  if (res != nullptr) res->finish_invocation(ctx);
}

namespace {

/// One slot's cached priority in a snapshot.  16 bytes with explicit,
/// zeroed padding: snapshots copy it byte for byte.
struct SavedPriority {
  double volume = 0.0;
  std::int32_t priority = 0;
  std::uint8_t valid = 0;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(SavedPriority) == 16);

}  // namespace

void DollyMPScheduler::save_state(StateWriter& w) const {
  // Only current-epoch entries matter: stale slots are garbage by
  // construction.  The block ends at the highest current one, so its
  // length never depends on how far the cache once grew.
  std::size_t count = cache_.size();
  while (count > 0 && !priority_known(count - 1)) --count;
  std::vector<SavedPriority> saved(count);
  for (std::size_t slot = 0; slot < count; ++slot) {
    if (!priority_known(slot)) continue;
    saved[slot].volume = cache_[slot].volume;
    saved[slot].priority = cache_[slot].priority;
    saved[slot].valid = 1;
  }
  w.pod_vec(saved);
  w.b(priorities_dirty_);
  w.b(scorer_.has_value());
  if (scorer_) scorer_->save_state(w);
  w.b(resilience_.has_value());
  if (resilience_) resilience_->save_state(w);
}

void DollyMPScheduler::load_state(StateReader& r) {
  // Called on a fresh same-config instance after reset(): write the saved
  // entries at the current epoch so priority_known sees them again.  The
  // reader bounds the block by the bytes left.
  std::vector<SavedPriority> saved;
  r.pod_vec(saved);
  cache_.assign(saved.size(), {});
  for (std::size_t slot = 0; slot < saved.size(); ++slot) {
    if (saved[slot].valid != 0) {
      cache_[slot] = {epoch_, saved[slot].volume, saved[slot].priority};
    }
  }
  priorities_dirty_ = r.b();
  if (r.b()) {
    // The lazy optionals are sized from the stream, so a zero-server
    // placeholder is enough to restore into.
    if (!scorer_) scorer_.emplace(0);
    scorer_->load_state(r);
    index_weights_stale_ = true;
  }
  if (r.b()) {
    if (!resilience_) resilience_.emplace(config_.resilience, 0);
    resilience_->load_state(r);
  }
}

}  // namespace dollymp
