// The fault-injection matrix: delay draws and down-state bookkeeping for
// the four injectable fault classes.
//
// The simulator owns the event queues; this engine owns (a) the delay draws
// for every fault timer — all from the single dedicated failure RNG, so the
// realization is a pure function of (seed, event pop order) and replay
// determinism is preserved — and (b) the per-server down-source bookkeeping
// that makes overlapping fault classes idempotent: a server downed by both
// an independent crash and its rack's outage comes back only when the last
// cause clears, and duplicate failure/repair events for an already-
// failed/repaired server are absorbed as non-edges instead of corrupting
// copy or index state.
//
// Fault classes (FaultClass):
//   kCrash      independent whole-server crash/repair (the legacy
//               FailureConfig class, refactored in; delay family upgradable
//               to Weibull via FaultConfig::crash_dist).
//   kRack       rack-correlated outage: every server sharing the rack goes
//               down at once and comes back at once.
//   kFailSlow   "gray" server: stays up, keeps its allocations, but new
//               copies run slowdown_factor times longer until recovery.
//   kCopyFault  transient single-copy kill (task crash / OOM) with the
//               machine staying up; the victim is drawn uniformly from the
//               running copies.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/sim/machine_queue.h"
#include "dollymp/sim/types.h"

namespace dollymp {

class StateWriter;
class StateReader;

enum class FaultClass : std::uint8_t {
  kCrash = 0,
  kRack = 1,
  kFailSlow = 2,
  kCopyFault = 3,
};

[[nodiscard]] const char* to_string(FaultClass cls);

class FaultEngine {
 public:
  /// @param rng  the dedicated failure stream (Rng split 4); held by
  ///             reference — every delay draw and victim pick goes through
  ///             it in event-pop order, which is deterministic.
  FaultEngine(const Cluster& cluster, const FailureConfig& crash,
              const FaultConfig& faults, double slot_seconds, Rng& rng);

  [[nodiscard]] double slowdown_factor() const { return faults_.fail_slow.slowdown_factor; }

  /// Draw the initial timer for every enabled fault class, counted from
  /// slot 0.  Crash timers are drawn first, one per server in id order —
  /// exactly the legacy seed_failures() draw sequence, so a crash-only
  /// configuration consumes the failure stream identically to the
  /// pre-fault-matrix simulator.  Then one failure timer per rack and one
  /// onset timer per server (fail-slow), all pushed straight into
  /// `machine`, and last the single cluster-wide copy-fault timer, whose
  /// slot is returned (kNever when copy faults are off).
  [[nodiscard]] SimTime seed(MachineQueue& machine);

  // Per-class delay draws (slots, >= 1), consumed at event-pop time to
  // schedule the follow-up event.  Each consumes exactly one uniform draw.
  [[nodiscard]] SimTime crash_failure_delay();
  [[nodiscard]] SimTime crash_repair_delay();
  [[nodiscard]] SimTime rack_failure_delay();
  [[nodiscard]] SimTime rack_repair_delay();
  [[nodiscard]] SimTime fail_slow_onset_delay();
  [[nodiscard]] SimTime fail_slow_recovery_delay();
  [[nodiscard]] SimTime copy_fault_delay();

  /// Uniform victim pick in [0, n) from the failure stream (copy faults).
  [[nodiscard]] std::size_t pick(std::size_t n) { return rng_.below(n); }

  /// Record that `source` wants `server` down.  Returns true only on the
  /// edge transition from fully-up to down — the caller must kill copies
  /// exactly then.  A failure landing on an already-down server
  /// (e.g. crash after rack outage, or a duplicate event) is absorbed.
  bool mark_down(ServerId server, FaultClass source);

  /// Record that `source` no longer holds `server` down.  Returns true only
  /// when the last down-cause clears — the caller brings it up exactly
  /// then.  A repair racing another source's outage (or a duplicate
  /// repair) is absorbed.
  bool mark_up(ServerId server, FaultClass source);

  [[nodiscard]] bool is_down(ServerId server) const {
    return down_mask_[static_cast<std::size_t>(server)] != 0;
  }

  [[nodiscard]] int rack_count() const { return static_cast<int>(rack_members_.size()); }
  [[nodiscard]] const std::vector<ServerId>& rack_members(int rack) const {
    return rack_members_[static_cast<std::size_t>(rack)];
  }

  /// Checkpoint/restore: the down-source mask is the engine's only mutable
  /// state (the failure RNG is owned by the simulator and restored there;
  /// rack membership is derived from the cluster topology).
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  [[nodiscard]] SimTime delay_slots(const FaultDelaySpec& spec);
  [[nodiscard]] SimTime exponential_delay_slots(double mean_seconds);

  FailureConfig crash_;
  FaultConfig faults_;
  double slot_seconds_;
  Rng& rng_;
  /// Bit i of down_mask_[s] set when fault class i currently holds s down
  /// (only kCrash and kRack bits are ever set — fail-slow keeps servers up).
  std::vector<std::uint8_t> down_mask_;
  std::vector<std::vector<ServerId>> rack_members_;
};

}  // namespace dollymp
