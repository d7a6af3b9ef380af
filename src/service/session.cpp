#include "dollymp/service/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dollymp/common/state_io.h"

namespace dollymp {

namespace {
/// Ring capacity of the session-owned recorder: the hash covers the whole
/// stream regardless, so the ring only bounds dump-on-anomaly context.
constexpr std::size_t kServiceRingCapacity = 4096;
}  // namespace

void ServiceConfig::validate() const {
  sim.validate();
  arrivals.validate();
  overload.validate();
  (void)make_named_policy(policy);  // an unknown name throws listing the known ones
  if (pump_slots <= 0) {
    throw std::invalid_argument("ServiceConfig: pump_slots must be > 0");
  }
  if (checkpoint_interval_seconds == 0.0) {
    throw std::invalid_argument(
        "ServiceConfig: checkpoint_interval_seconds must be nonzero "
        "(negative disables periodic checkpoints)");
  }
}

Session::Session(Cluster cluster, ServiceConfig config)
    : config_(std::move(config)),
      prototype_(std::move(cluster)),
      recorder_(kServiceRingCapacity),
      source_(config_.arrivals),
      gate_(config_.overload),
      governor_(config_.overload),
      slo_(static_cast<std::size_t>(std::max(1, config_.overload.slo_window_size))) {
  config_.validate();
  if (prototype_.size() == 0) {
    throw std::invalid_argument("Session: empty cluster");
  }
  // The session's recorder is authoritative: the stream hash is the
  // checkpoint/fork equality oracle, so service mode always records.
  config_.sim.recorder = &recorder_;
  scheduler_ = make_named_policy(config_.policy);
  core_ = std::make_unique<SimCore>(prototype_, config_.sim);
  core_->set_streaming(true);
  // The response-time window only feeds the governor; leave the completion
  // hot path untouched when the ladder is off.
  if (config_.overload.governor_enabled) core_->set_slo_window(&slo_);
  core_->begin(*scheduler_);
}

void Session::run_until(SimTime horizon_slots) {
  while (clock_ < horizon_slots) {
    const SimTime chunk_end = std::min(horizon_slots, clock_ + config_.pump_slots);
    // Overload work happens at the pump boundary, before the chunk's
    // arrivals are filtered: the gate and ladder see the load the previous
    // chunk left behind — a pure function of the session's own state, so
    // restored and forked sessions evaluate identically.
    if (config_.overload.any_enabled()) evaluate_overload();
    pump_arrivals(chunk_end);
    (void)core_->step_until(chunk_end);
    clock_ = chunk_end;
  }
}

long long Session::arrivals_shed() const {
  const SimStats& st = core_->stats();
  return st.arrivals_shed_admission + st.arrivals_shed_watermark +
         st.arrivals_shed_overload;
}

void Session::evaluate_overload() {
  // Live-load estimate: jobs in flight per placeable server.  Quarantined
  // and down machines drop out of the denominator, so a faulty fleet trips
  // the watermark earlier — protection is fault-aware by construction.
  const int live = std::max(1, core_->live_servers());
  last_load_ratio_ =
      static_cast<double>(core_->jobs_remaining()) / static_cast<double>(live);
  if (config_.overload.admission_enabled) gate_.update_watermark(last_load_ratio_);
  if (config_.overload.governor_enabled) {
    const int before = core_->overload_level();
    const int after = governor_.evaluate(last_load_ratio_, slo_);
    if (after != before) core_->note_overload_transition(before, after);
  }
}

void Session::pump_arrivals(SimTime through_slot) {
  // Jobs with arrival_seconds < (through_slot + 1) * slot_seconds land on
  // slots <= through_slot; everything pumped in a previous chunk was below
  // the previous horizon, so arrivals are never ingested late.
  const double horizon_seconds =
      static_cast<double>(through_slot + 1) * config_.sim.slot_seconds;
  if (source_.next_arrival_seconds() >= horizon_seconds) return;
  std::vector<JobSpec> specs;
  source_.emit_until(horizon_seconds, specs);
  // Admission gate: filter the chunk's arrivals in place.  A shed job is
  // never ingested — its id simply vanishes from the stream (and lands in
  // the shed accounting), exactly as if the client had been turned away.
  const int level = core_->overload_level();
  if (config_.overload.admission_enabled || level >= 3) {
    std::size_t kept = 0;
    for (JobSpec& spec : specs) {
      ShedReason reason{};
      if (gate_.admit(spec, level, &reason)) {
        if (kept != static_cast<std::size_t>(&spec - specs.data())) {
          specs[kept] = std::move(spec);
        }
        ++kept;
      } else {
        core_->note_arrival_shed(spec.id, gate_.tenant_class(spec.id),
                                 static_cast<int>(reason));
      }
    }
    specs.resize(kept);
  }
  core_->ingest(std::move(specs));
}

void Session::write_payload(StateWriter& w) const {
  w.str(config_.policy);
  w.u64(prototype_.size());
  w.i64(clock_);
  source_.save_state(w);
  core_->save_state(w);
  // Overload-protection state rides at the tail: gate (bucket level, latch,
  // diffusion), governor (rung + dwell), the SLO window's samples and the
  // core's applied ladder level.  Written unconditionally so the payload
  // layout does not depend on which knobs are on.
  w.section(0x4F564C44u);  // 'OVLD'
  gate_.save_state(w);
  governor_.save_state(w);
  slo_.save_state(w);
  w.i32(core_->overload_level());
  w.f64(last_load_ratio_);
}

void Session::load_payload(StateReader& r, bool load_scheduler, const SimCore* parent) {
  const std::string snapshot_policy = r.str();
  if (load_scheduler && snapshot_policy != config_.policy) {
    throw std::runtime_error("snapshot: policy mismatch (snapshot ran " +
                             snapshot_policy + ", session configured " +
                             config_.policy + ")");
  }
  const std::uint64_t snapshot_servers = r.u64();
  if (snapshot_servers != prototype_.size()) {
    throw std::runtime_error(
        "snapshot: cluster size mismatch (snapshot has " +
        std::to_string(snapshot_servers) + " servers, session has " +
        std::to_string(prototype_.size()) + ")");
  }
  clock_ = r.i64();
  source_.load_state(r);
  core_->load_state(r, load_scheduler, parent);
  r.section(0x4F564C44u);  // 'OVLD'
  gate_.load_state(r);
  governor_.load_state(r);
  slo_.load_state(r);
  // Re-apply the ladder rung silently: the transition was traced when it
  // happened in the original run; replaying it would skew the stream.
  core_->set_overload_level(r.i32());
  last_load_ratio_ = r.f64();
}

std::vector<std::uint8_t> Session::serialize() const {
  StateWriter w;
  write_payload(w);
  return w.finish();
}

void Session::checkpoint(const std::string& path) const {
  write_state_file(path, serialize());
}

std::unique_ptr<Session> Session::restore(Cluster cluster, ServiceConfig config,
                                          const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_state_file(path);
  StateReader r(bytes);
  auto session = std::make_unique<Session>(std::move(cluster), std::move(config));
  session->load_payload(r, /*load_scheduler=*/true, nullptr);
  r.expect_done();
  return session;
}

std::unique_ptr<Session> Session::fork(const ForkOptions& options) const {
  ServiceConfig child_config = config_;
  const bool switch_policy = !options.policy.empty() && options.policy != config_.policy;
  if (!options.policy.empty()) child_config.policy = options.policy;
  child_config.sim.recorder = nullptr;  // the child installs its own

  StateWriter w;
  write_payload(w);
  const std::vector<std::uint8_t> bytes = w.finish();
  StateReader r(bytes);

  auto child = std::make_unique<Session>(prototype_, std::move(child_config));
  // The child's live slots share the parent's spec chunks, which stay alive
  // for the child even after the parent recycles their jobs.
  child->load_payload(r, /*load_scheduler=*/!switch_policy, core_.get());
  r.expect_done();

  for (const ServerId server : options.quarantine) {
    if (server < 0 ||
        static_cast<std::size_t>(server) >= child->core_->cluster().size()) {
      throw std::invalid_argument("ForkOptions: quarantine server id out of range");
    }
    child->core_->set_server_quarantined(server, true);
  }
  return child;
}

}  // namespace dollymp
