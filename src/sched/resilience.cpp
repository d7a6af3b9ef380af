#include "dollymp/sched/resilience.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "dollymp/common/state_io.h"
#include "dollymp/obs/recorder.h"

namespace dollymp {

ResiliencePolicy::ResiliencePolicy(ResilienceConfig config, std::size_t cluster_size)
    : config_(config) {
  strikes_.assign(cluster_size, 0.0);
  strike_updated_.assign(cluster_size, 0);
  quarantine_release_.assign(cluster_size, kNever);
}

double ResiliencePolicy::decayed_strikes(ServerId server, SimTime now) const {
  const auto s = static_cast<std::size_t>(server);
  const auto dt = static_cast<double>(now - strike_updated_[s]);
  if (dt <= 0.0 || strikes_[s] == 0.0) return strikes_[s];
  return strikes_[s] * std::exp2(-dt / config_.strike_half_life_slots);
}

void ResiliencePolicy::add_strike(SchedulerContext& ctx, ServerId server) {
  const SimTime now = ctx.now();
  const auto s = static_cast<std::size_t>(server);
  strikes_[s] = decayed_strikes(server, now) + 1.0;
  strike_updated_[s] = now;
  if (!config_.quarantine) return;
  if (quarantine_release_[s] != kNever) return;  // already serving a term
  if (strikes_[s] < config_.flap_threshold) return;
  // Fleet-fraction cap: quarantining is a luxury — with much of the
  // cluster already excluded, keep flaky servers in service rather than
  // starving placement entirely.
  const auto fleet = static_cast<double>(strikes_.size());
  if (static_cast<double>(quarantined_count_ + 1) >
      config_.max_quarantined_fraction * fleet) {
    return;
  }
  quarantine_release_[s] = now + config_.quarantine_slots;
  release_heap_.emplace_back(quarantine_release_[s], server);
  std::push_heap(release_heap_.begin(), release_heap_.end(), std::greater<>{});
  ++quarantined_count_;
  ctx.set_server_quarantined(server, true);
  // Make sure an invocation happens at the release slot even on an
  // otherwise-quiet cluster, so begin_invocation can lift the term.
  ctx.request_wakeup(quarantine_release_[s]);
}

void ResiliencePolicy::on_copy_fault(SchedulerContext& ctx, const TaskRuntime& task,
                                     ServerId server) {
  add_strike(ctx, server);
  // Backoff applies when the fault orphaned the task: the next re-placement
  // attempt waits out an exponentially growing hold.
  if (!task.needs_placement()) return;
  Backoff& b = backoff_[task.ref];
  const int doublings = std::min(b.attempts, config_.retry_budget);
  const SimTime hold = std::min(config_.backoff_max_slots,
                                config_.backoff_initial_slots << doublings);
  ++b.attempts;
  b.release = ctx.now() + hold;
  ctx.note_retry_issued(hold);
  if (Recorder* rec = ctx.recorder()) {
    TraceRecord r;
    r.slot = ctx.now();
    r.type = TraceEv::kRetryBackoff;
    r.job = task.ref.job;
    r.phase = task.ref.phase;
    r.task = task.ref.task;
    r.server = server;
    r.aux = hold;
    rec->append(r);
  }
}

void ResiliencePolicy::on_server_failed(SchedulerContext& ctx, ServerId server) {
  ++down_count_;
  add_strike(ctx, server);
}

void ResiliencePolicy::on_server_repaired(SchedulerContext& /*ctx*/, ServerId /*server*/) {
  --down_count_;
}

void ResiliencePolicy::begin_invocation(SchedulerContext& ctx) {
  earliest_release_ = kNever;
  const SimTime now = ctx.now();
  releasing_.clear();
  while (!release_heap_.empty() && release_heap_.front().first <= now) {
    std::pop_heap(release_heap_.begin(), release_heap_.end(), std::greater<>{});
    const auto [slot, server] = release_heap_.back();
    release_heap_.pop_back();
    if (quarantine_release_[static_cast<std::size_t>(server)] == slot) {
      releasing_.push_back(server);
    }
  }
  // Ascending ids: the order of a scan over the fleet, so the quarantine
  // exit records and index hooks arrive in the same sequence.
  std::sort(releasing_.begin(), releasing_.end());
  for (const ServerId server : releasing_) {
    const auto s = static_cast<std::size_t>(server);
    quarantine_release_[s] = kNever;
    --quarantined_count_;
    // Probation: release with half the strikes instead of a clean slate —
    // a server that flaps again right away goes straight back in.
    strikes_[s] = decayed_strikes(server, now) * 0.5;
    strike_updated_[s] = now;
    ctx.set_server_quarantined(server, false);
  }
}

bool ResiliencePolicy::should_defer(const TaskRuntime& task, SimTime now) {
  const auto it = backoff_.find(task.ref);
  if (it == backoff_.end()) return false;
  if (it->second.release == kNever || it->second.release <= now) return false;
  if (earliest_release_ == kNever || it->second.release < earliest_release_) {
    earliest_release_ = it->second.release;
  }
  return true;
}

void ResiliencePolicy::finish_invocation(SchedulerContext& ctx) {
  if (earliest_release_ == kNever) return;
  ctx.defer_retry(earliest_release_);
  earliest_release_ = kNever;
}

void ResiliencePolicy::save_state(StateWriter& w) const {
  w.pod_vec(strikes_);
  w.pod_vec(strike_updated_);
  w.pod_vec(quarantine_release_);
  w.i32(quarantined_count_);
  w.i32(down_count_);
  w.i64(earliest_release_);
  // Backoff entries sorted by task ref so the snapshot bytes are stable
  // (unordered_map iteration order is not).  Lookup is always by find(),
  // so restore order never influences behavior.
  std::vector<std::pair<TaskRef, Backoff>> entries(backoff_.begin(), backoff_.end());
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.first.job != b.first.job) return a.first.job < b.first.job;
    if (a.first.phase != b.first.phase) return a.first.phase < b.first.phase;
    return a.first.task < b.first.task;
  });
  w.u64(entries.size());
  for (const auto& [ref, hold] : entries) {
    w.i32(ref.job);
    w.i32(ref.phase);
    w.i32(ref.task);
    w.i32(hold.attempts);
    w.i64(hold.release);
  }
}

void ResiliencePolicy::load_state(StateReader& r) {
  r.pod_vec(strikes_);
  r.pod_vec(strike_updated_);
  r.pod_vec(quarantine_release_);
  release_heap_.clear();
  for (std::size_t s = 0; s < quarantine_release_.size(); ++s) {
    if (quarantine_release_[s] != kNever) {
      release_heap_.emplace_back(quarantine_release_[s], static_cast<ServerId>(s));
    }
  }
  std::make_heap(release_heap_.begin(), release_heap_.end(), std::greater<>{});
  quarantined_count_ = r.i32();
  down_count_ = r.i32();
  earliest_release_ = r.i64();
  backoff_.clear();
  // Each entry: four i32 fields and one i64.
  const std::size_t count = r.count("backoff", 4 * 4 + 8);
  backoff_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TaskRef ref;
    ref.job = r.i32();
    ref.phase = r.i32();
    ref.task = r.i32();
    Backoff hold;
    hold.attempts = r.i32();
    hold.release = r.i64();
    backoff_.emplace(ref, hold);
  }
}

int ResiliencePolicy::degraded_clone_budget(const SchedulerContext& ctx,
                                            int configured) const {
  if (!config_.degrade_clones || configured <= 0) return configured;
  const auto fleet = static_cast<double>(ctx.cluster().size());
  if (fleet <= 0.0) return configured;
  const double live =
      fleet - static_cast<double>(down_count_) - static_cast<double>(quarantined_count_);
  const double fraction = std::max(0.0, live / fleet);
  if (fraction >= config_.capacity_watermark) return configured;
  // Proportional shrink below the watermark: at watermark the full budget,
  // approaching zero capacity approaches zero clones.
  const int effective = static_cast<int>(
      std::floor(static_cast<double>(configured) * fraction / config_.capacity_watermark));
  return std::clamp(effective, 0, configured);
}

}  // namespace dollymp
