// Forwarding Scheduler and SchedulerContext wrappers.
//
// TimedScheduler sits between SimCore and the policy and hands the policy a
// TracingContext, which forwards every SchedulerContext virtual and counts
// placement attempts.  Untraced, the scheduler wrapper only reads the clock
// around each schedule() call: calls that attempted a placement are the
// round_ms samples.  Traced, both wrappers also open a span around every
// call into the policy and around every placement commit.  The wrappers
// are transparent — every virtual is forwarded, so the decision stream is
// identical with and without them, which the benchmark checks with its
// decision digest.
#pragma once

#include <string>
#include <vector>

#include "dollymp/sched/scheduler.h"
#include "trace.h"

namespace perfbench {

using namespace dollymp;

class TracingContext final : public SchedulerContext {
 public:
  /// `tracer` null: count placement attempts without spans.
  explicit TracingContext(Tracer* tracer) : tracer_(tracer) {}

  void bind(SchedulerContext& inner) { inner_ = &inner; }
  [[nodiscard]] long long placement_attempts() const { return attempts_; }

  [[nodiscard]] SimTime now() const override { return inner_->now(); }
  [[nodiscard]] double slot_seconds() const override { return inner_->slot_seconds(); }
  [[nodiscard]] const Cluster& cluster() const override { return inner_->cluster(); }
  [[nodiscard]] const SimConfig& config() const override { return inner_->config(); }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override {
    return inner_->active_jobs();
  }
  bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                  ServerId server) override {
    ++attempts_;
    ScopedSpan span(tracer_, Layer::kPlace);
    return inner_->place_copy(job, phase, task, server);
  }
  bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                              ServerId server) override {
    ++attempts_;
    ScopedSpan span(tracer_, Layer::kPlace);
    return inner_->place_speculative_copy(job, phase, task, server);
  }
  bool place_gang(JobRuntime& job, PhaseRuntime& phase) override {
    ++attempts_;
    ScopedSpan span(tracer_, Layer::kPlace);
    return inner_->place_gang(job, phase);
  }
  void request_wakeup(SimTime slot) override { inner_->request_wakeup(slot); }
  [[nodiscard]] Rng& policy_rng() override { return inner_->policy_rng(); }
  [[nodiscard]] PlacementIndex* placement_index() override { return inner_->placement_index(); }
  [[nodiscard]] ThreadPool* worker_pool() override { return inner_->worker_pool(); }
  [[nodiscard]] ShardStats* shard_stats() override { return inner_->shard_stats(); }
  [[nodiscard]] Recorder* recorder() override { return inner_->recorder(); }
  void set_server_quarantined(ServerId server, bool quarantined) override {
    inner_->set_server_quarantined(server, quarantined);
  }
  void defer_retry(SimTime release_slot) override { inner_->defer_retry(release_slot); }
  void note_retry_issued(long long backoff_slots) override {
    inner_->note_retry_issued(backoff_slots);
  }
  void note_clone_budget_degraded(int effective, int configured) override {
    inner_->note_clone_budget_degraded(effective, configured);
  }
  [[nodiscard]] int overload_level() const override { return inner_->overload_level(); }

 private:
  Tracer* tracer_;
  SchedulerContext* inner_ = nullptr;
  long long attempts_ = 0;
};

class TimedScheduler final : public Scheduler {
 public:
  /// `tracer` null: untraced (schedule() timing only).  `round_ns`
  /// receives one sample per schedule() call that attempted a placement.
  TimedScheduler(Scheduler& inner, Tracer* tracer, std::vector<double>& round_ns)
      : inner_(inner), tracer_(tracer), round_ns_(round_ns), context_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }

  void schedule(SchedulerContext& ctx) override {
    SchedulerContext& target = wrap(ctx);
    const long long attempts = context_.placement_attempts();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer_, Layer::kSchedSchedule);
      inner_.schedule(target);
    }
    const std::int64_t t1 = now_ns();
    if (context_.placement_attempts() > attempts) round_ns_.push_back(static_cast<double>(t1 - t0));
  }

  void on_job_arrival(SchedulerContext& ctx) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_job_arrival(target);
  }
  void on_copy_finished(SchedulerContext& ctx, const JobRuntime& job,
                        const PhaseRuntime& phase, const TaskRuntime& task,
                        const CopyRuntime& copy) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_copy_finished(target, job, phase, task, copy);
  }
  void on_phase_completed(SchedulerContext& ctx, const JobRuntime& job,
                          const PhaseRuntime& phase) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_phase_completed(target, job, phase);
  }
  void on_job_completed(SchedulerContext& ctx, const JobRuntime& job) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_job_completed(target, job);
  }
  void on_server_failed(SchedulerContext& ctx, ServerId server) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_server_failed(target, server);
  }
  void on_server_repaired(SchedulerContext& ctx, ServerId server) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_server_repaired(target, server);
  }
  void on_copy_fault(SchedulerContext& ctx, const JobRuntime& job, const PhaseRuntime& phase,
                     const TaskRuntime& task, ServerId server) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_copy_fault(target, job, phase, task, server);
  }
  void on_server_degraded(SchedulerContext& ctx, ServerId server, double factor) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_server_degraded(target, server, factor);
  }
  void on_server_restored(SchedulerContext& ctx, ServerId server) override {
    SchedulerContext& target = wrap(ctx);
    ScopedSpan span(tracer_, Layer::kSchedNotify);
    inner_.on_server_restored(target, server);
  }
  void save_state(StateWriter& w) const override { inner_.save_state(w); }
  void load_state(StateReader& r) override { inner_.load_state(r); }

 private:
  SchedulerContext& wrap(SchedulerContext& ctx) {
    context_.bind(ctx);
    return context_;
  }

  Scheduler& inner_;
  Tracer* tracer_;
  std::vector<double>& round_ns_;
  TracingContext context_;
};

}  // namespace perfbench
