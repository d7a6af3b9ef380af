#include "dollymp/sched/scheduler.h"

#include <algorithm>

#include "dollymp/cluster/placement_index.h"
#include "dollymp/obs/recorder.h"

namespace dollymp {

namespace {

// Flight-recorder hook shared by the context-taking placement helpers: one
// kPlacementQuery record per query with the chosen server and its score (the
// free-capacity dot product best fit maximizes), so a trace explains every
// placement decision.  `query_kind` matches the TraceEv documentation:
// 0 best-fit, 1 first-fit.
void trace_query(SchedulerContext& ctx, std::int64_t query_kind,
                 const Resources& demand, ServerId chosen) {
  Recorder* rec = ctx.recorder();
  if (rec == nullptr) return;
  TraceRecord r;
  r.slot = ctx.now();
  r.type = TraceEv::kPlacementQuery;
  r.server = chosen;
  r.aux = query_kind;
  if (chosen != kInvalidServer) {
    r.score = demand.dot(ctx.cluster().server(static_cast<std::size_t>(chosen)).free());
  }
  rec->append(r);
}

}  // namespace

ServerId best_fit_server(const Cluster& cluster, const Resources& demand) {
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  for (const auto& server : cluster.servers()) {
    if (!server.can_fit(demand)) continue;
    const double score = demand.dot(server.free());
    if (score > best_score) {
      best_score = score;
      best = server.id();
    }
  }
  return best;
}

ServerId first_fit_server(const Cluster& cluster, const Resources& demand) {
  for (const auto& server : cluster.servers()) {
    if (server.can_fit(demand)) return server.id();
  }
  return kInvalidServer;
}

ServerId best_fit_server(SchedulerContext& ctx, const Resources& demand) {
  const ServerId chosen = ctx.placement_index()->best_fit(demand);
  trace_query(ctx, 0, demand, chosen);
  return chosen;
}

ServerId first_fit_server(SchedulerContext& ctx, const Resources& demand) {
  const ServerId chosen = ctx.placement_index()->first_fit(demand);
  trace_query(ctx, 1, demand, chosen);
  return chosen;
}

TaskRuntime* next_unscheduled_task(PhaseRuntime& phase) {
  if (phase.unscheduled_tasks == 0) return nullptr;
  // Gang phases are all-or-nothing: refusing per-task handout here is the
  // safety net that keeps every greedy path from starting a partial gang.
  if (phase.spec != nullptr && phase.spec->gang) return nullptr;
  auto& hint = phase.first_unscheduled_hint;
  const int n = static_cast<int>(phase.tasks.size());
  while (hint < n && !phase.tasks[static_cast<std::size_t>(hint)].needs_placement()) {
    ++hint;
  }
  return hint < n ? &phase.tasks[static_cast<std::size_t>(hint)] : nullptr;
}

int place_gang_phases(SchedulerContext& ctx, JobRuntime& job) {
  int placed = 0;
  for (auto& phase : job.phases) {
    if (phase.spec == nullptr || !phase.spec->gang) continue;
    if (!phase.runnable() || phase.unscheduled_tasks == 0) continue;
    const int pending = phase.unscheduled_tasks;
    if (ctx.place_gang(job, phase)) placed += pending - phase.unscheduled_tasks;
  }
  return placed;
}

int place_job_greedy(SchedulerContext& ctx, JobRuntime& job) {
  int placed = place_gang_phases(ctx, job);
  for (auto& phase : job.phases) {
    if (!phase.runnable()) continue;
    while (TaskRuntime* task = next_unscheduled_task(phase)) {
      const ServerId server = best_fit_server(ctx, task->demand);
      if (server == kInvalidServer) break;  // identical siblings will not fit either
      if (!ctx.place_copy(job, phase, *task, server)) break;
      ++placed;
    }
  }
  return placed;
}

Resources job_active_allocation(const JobRuntime& job) {
  Resources total;
  for (const auto& phase : job.phases) {
    if (phase.active_copies > 0) {
      total += phase.spec->demand * static_cast<double>(phase.active_copies);
    }
  }
  return total;
}

Resources job_active_allocation_scan(const JobRuntime& job) {
  Resources total;
  for (const auto& phase : job.phases) {
    for (const auto& task : phase.tasks) {
      const int active = task.active_copies();
      if (active > 0) total += task.demand * static_cast<double>(active);
    }
  }
  return total;
}

}  // namespace dollymp
