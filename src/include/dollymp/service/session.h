// A long-lived simulation service session: streaming arrivals, verifiable
// checkpoint/restore, and copy-on-write what-if forks (DESIGN.md §4.8).
//
// A Session wraps a SimCore in service mode (streaming + job recycling),
// pumps jobs from an ArrivalSource in bounded chunks as simulated time
// advances, and keeps resident memory proportional to the number of LIVE
// jobs rather than total arrivals: the core owns each pumped chunk of specs
// and frees it once every job it carries has been recycled.
//
// Checkpoints are full-fidelity: the DMPCKPT01 file carries the arrival
// source position, the session clock and the complete SimCore state
// (including the scheduler's decision caches), so a restored session's
// flight-recorder stream hash is bit-identical to the uninterrupted run's
// — checked by tests/test_service across policies, fault modes and
// checkpoint points.
//
// Forks are the what-if primitive: fork() snapshots the parent in memory
// and builds a child session that shares the parent's immutable spec
// chunks (SimCore::load_state with the parent core — no spec bytes are
// copied) while owning all mutable state.  The child can switch
// policy (the scheduler blob is skipped; the new policy starts cold) and
// quarantine servers at the fork point, then run an alternative future
// without perturbing the parent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/metrics/slo_window.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/policies.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/service/arrival_source.h"
#include "dollymp/service/overload.h"
#include "dollymp/sim/sim_core.h"

namespace dollymp {

struct ServiceConfig {
  SimConfig sim;
  ArrivalConfig arrivals;
  std::string policy = "dollymp2";
  /// Arrival pump chunk in slots: run_until ingests and steps in windows of
  /// this many slots so the in-core arrival backlog stays bounded.
  SimTime pump_slots = 256;
  /// Periodic checkpoint cadence in simulated seconds for drivers that ask
  /// for one (tools/dollymp_service --checkpoint-every).  Negative disables;
  /// exactly 0 is rejected (a checkpoint per slot is never what you want).
  double checkpoint_interval_seconds = -1.0;
  /// Overload protection: admission gate, load shedding and the SLO-driven
  /// degradation ladder.  All layers default off — the protected hot path
  /// is byte-identical to PR 8's, pinned by the golden stream hashes.
  OverloadConfig overload;

  /// Full validation: sim.validate(), arrivals.validate(), the policy name,
  /// the overload knobs and the service knobs.  Throws std::invalid_argument
  /// naming the field.
  void validate() const;
};

class Session {
 public:
  /// What-if divergence options for fork().
  struct ForkOptions {
    /// Empty: inherit the parent's policy AND its warm scheduler state.
    /// A different name: the child runs that policy from a cold start (the
    /// snapshot's scheduler blob is skipped).
    std::string policy;
    /// Servers quarantined in the child at the fork point ("what if this
    /// rack went dark") — permanent for the child's lifetime.
    std::vector<ServerId> quarantine;
  };

  /// Validates the config, installs the session-owned flight recorder
  /// (always on — the stream hash is the service's equality oracle;
  /// bounded ring, so it never grows), binds the policy and arms the core
  /// at slot 0.
  Session(Cluster cluster, ServiceConfig config);

  /// Advance simulated time through `horizon_slots`, pumping arrivals in
  /// pump_slots-sized chunks.
  ///
  /// Determinism contract: the decision stream is a pure function of
  /// (config, the SEQUENCE of run_until horizons).  Chunk boundaries decide
  /// whether an arriving job reuses a recycled slot or appends a fresh one,
  /// so pausing at different points yields different (each individually
  /// deterministic) streams.  Checkpoint/restore preserves bit-identity
  /// because the restored session resumes at the saved clock and the caller
  /// drives both futures with the same horizons.
  void run_until(SimTime horizon_slots);

  // ---- observability -------------------------------------------------------
  [[nodiscard]] SimTime clock() const { return clock_; }
  [[nodiscard]] const StreamTotals& totals() const { return core_->totals(); }
  [[nodiscard]] int live_jobs() const { return core_->jobs_remaining(); }
  [[nodiscard]] std::uint64_t stream_hash() const { return recorder_.hash(); }
  [[nodiscard]] std::uint64_t records_written() const { return recorder_.records_written(); }
  /// Job specs the core still holds (SimCore::specs_retained) — the
  /// number that must stay proportional to live jobs, not total arrivals.
  [[nodiscard]] std::size_t specs_retained() const { return core_->specs_retained(); }
  [[nodiscard]] std::size_t store_memory_bytes() const { return core_->store_memory_bytes(); }
  /// Current rung of the degradation ladder (0 unless the governor is on).
  [[nodiscard]] int overload_level() const { return core_->overload_level(); }
  /// Arrivals dropped by any protection layer so far (sum of the three
  /// SimStats shed counters) — with jobs_ingested this accounts for every
  /// arrival the source emitted.
  [[nodiscard]] long long arrivals_shed() const;
  /// Live-load ratio the gate/governor saw at the last pump boundary.
  [[nodiscard]] double load_ratio() const { return last_load_ratio_; }
  /// The sliding response-time window behind the SLO governor.
  [[nodiscard]] const SloWindow& slo_window() const { return slo_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] const std::string& policy_name() const { return config_.policy; }
  /// The underlying core, exposed for stats and targeted what-if mutations.
  [[nodiscard]] SimCore& core() { return *core_; }
  [[nodiscard]] const SimCore& core() const { return *core_; }

  // ---- checkpoint/restore --------------------------------------------------
  /// Write a DMPCKPT01 checkpoint file.  Legal at any pause point; const —
  /// the session continues unperturbed.
  void checkpoint(const std::string& path) const;

  /// The checkpoint payload as sealed DMPCKPT01 envelope bytes — what
  /// checkpoint() writes, for callers that publish through a
  /// SnapshotRotation instead of a single file.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Rebuild a session from a checkpoint written by a session with the
  /// same config (policy and cluster size are carried in the file and
  /// checked).  The restored session's future decision stream is
  /// bit-identical to the uninterrupted original's.
  [[nodiscard]] static std::unique_ptr<Session> restore(Cluster cluster,
                                                        ServiceConfig config,
                                                        const std::string& path);

  // ---- what-if forks -------------------------------------------------------
  /// Copy-on-write fork at the current pause point.  The child shares the
  /// parent's spec chunks (and keeps them alive through their shared
  /// pointers); all mutable simulation state is the child's own.  The
  /// parent is not modified and its future stream is unaffected.
  [[nodiscard]] std::unique_ptr<Session> fork(const ForkOptions& options) const;

 private:
  void pump_arrivals(SimTime through_slot);
  /// Pump-boundary overload work: refresh the load estimate, update the
  /// watermark latch and step the governor ladder (tracing transitions).
  void evaluate_overload();
  void write_payload(StateWriter& w) const;
  /// `parent`: the core the payload was just taken from (a fork).
  void load_payload(StateReader& r, bool load_scheduler, const SimCore* parent);

  ServiceConfig config_;
  Cluster prototype_;  ///< pristine copy for restore/fork core construction
  Recorder recorder_;
  ArrivalSource source_;
  AdmissionGate gate_;
  OverloadGovernor governor_;
  SloWindow slo_;
  double last_load_ratio_ = 0.0;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<SimCore> core_;
  SimTime clock_ = 0;  ///< horizon stepped through so far
};

}  // namespace dollymp
