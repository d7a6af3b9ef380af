// Core simulator vocabulary: slotted time, task references, configuration.
//
// Section 3 models a time-slotted system; Section 6.3 picks a slot length of
// 5 seconds ("comparable to the duration of small tasks in traces") and has
// the scheduler act at the start of each slot.  SimTime counts slots;
// SimConfig::slot_seconds converts to wall-clock seconds.
#pragma once

#include <cstdint>

#include "dollymp/cluster/background_load.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/job/job.h"

namespace dollymp {

class Recorder;  // obs/recorder.h — the optional flight recorder

using SimTime = std::int64_t;
inline constexpr SimTime kNever = -1;

/// Identifies one task: (job, phase, task index within phase) — the
/// (j, k, l) triple of Section 3.
struct TaskRef {
  JobId job = -1;
  PhaseIndex phase = -1;
  int task = -1;

  friend constexpr bool operator==(const TaskRef&, const TaskRef&) = default;
};

/// How copy runtimes are produced.
enum class ExecutionModel : std::uint8_t {
  /// Each launched copy draws its base runtime from the phase's duration
  /// pool (the paper's Section 6.3 rule: "the running time of each clone
  /// [is] the same as that of a task randomly chosen from the same job
  /// phase"), scaled by server speed, locality penalty and background load.
  /// A task completes when its earliest copy does.
  kStochastic,
  /// Deterministic mean-field model of Eqs. (1), (4), (6): a task with r
  /// active copies accrues h(r) units of work per slot and completes when
  /// the accrued work reaches theta.  Used for validating the analytical
  /// results (Section 4) where expectations, not samples, are analyzed.
  kWorkBased,
};

/// What happens to outstanding copies when the first copy of a task
/// finishes (Section 5's delay-assignment policy).
enum class CloneKillPolicy : std::uint8_t {
  /// Kill every other copy immediately (resources released at once).
  kKillImmediately,
  /// Keep the still-running copy with the best data locality (the paper's
  /// AM keeps one for intermediate-data locality) and kill the rest; the
  /// kept copy runs to completion and its resource usage is charged.
  kKeepBestLocality,
};

[[nodiscard]] const char* to_string(ExecutionModel model);
[[nodiscard]] const char* to_string(CloneKillPolicy policy);

enum class FaultDelayDist : std::uint8_t;
[[nodiscard]] const char* to_string(FaultDelayDist dist);

/// Machine failure injection: servers crash (killing every running copy on
/// them and refusing placements) and come back after a repair delay.
/// Exercises the cloning machinery's fault-tolerance story — HDFS keeps
/// two replicas per block for exactly this case (Section 5).
struct FailureConfig {
  bool enabled = false;
  double mean_time_to_failure_seconds = 3600.0;
  double mean_repair_seconds = 300.0;
};

/// Delay distribution family for fault timers (sim/faults.h).  Both are
/// inverse-CDF samplers consuming exactly one uniform draw, so switching
/// the family never changes the failure stream's draw count.
enum class FaultDelayDist : std::uint8_t {
  kExponential,  ///< memoryless (the classic MTTF/MTTR model)
  kWeibull,      ///< shape < 1: infant mortality; shape > 1: wear-out
};

/// One fault delay: family, mean, and (for Weibull) the shape k.
struct FaultDelaySpec {
  FaultDelayDist dist = FaultDelayDist::kExponential;
  double mean_seconds = 3600.0;
  double weibull_shape = 1.5;  ///< only read when dist == kWeibull
};

/// Rack-correlated outages: an entire rack (shared ToR switch / PDU) goes
/// down at once and comes back at once.  Failure-domain correlation is the
/// case HDFS's off-rack second replica exists for — and the case the
/// independent-crash model cannot produce.
struct RackFaultConfig {
  bool enabled = false;
  FaultDelaySpec time_to_failure{FaultDelayDist::kExponential, 7200.0, 1.5};
  FaultDelaySpec repair{FaultDelayDist::kExponential, 600.0, 1.5};
};

/// Fail-slow ("gray") servers: the machine stays up and keeps its
/// allocations but copies launched while degraded run slowdown_factor
/// times longer (stochastic model; the mean-field work model ignores
/// speed, so this class is a no-op there).  Running copies keep their
/// already-realized durations — degradation hits new launches, which is
/// what a scheduler can actually steer around.
struct FailSlowConfig {
  bool enabled = false;
  double slowdown_factor = 4.0;  ///< >= 1; multiplies new-copy durations
  FaultDelaySpec time_to_onset{FaultDelayDist::kExponential, 3600.0, 1.5};
  FaultDelaySpec recovery{FaultDelayDist::kExponential, 900.0, 1.5};
};

/// Transient copy faults: a single running copy dies (task JVM crash, OOM
/// kill) without the machine going down.  The victim is drawn uniformly
/// from all running copies by the failure RNG.
struct CopyFaultConfig {
  bool enabled = false;
  FaultDelaySpec inter_fault{FaultDelayDist::kExponential, 300.0, 1.5};
};

/// The full fault-injection matrix (sim/faults.h).  The legacy independent
/// crash class keeps living in FailureConfig (SimConfig::failures) for
/// source compatibility; crash_dist below upgrades its delay family.
/// Everything here defaults to disabled/exponential, in which case the
/// simulation is bit-identical to the pre-fault-matrix behaviour.
struct FaultConfig {
  RackFaultConfig rack;
  FailSlowConfig fail_slow;
  CopyFaultConfig copy;
  /// Delay family for the independent-crash class of SimConfig::failures.
  FaultDelayDist crash_dist = FaultDelayDist::kExponential;
  double crash_weibull_shape = 1.5;

  [[nodiscard]] bool any_enabled() const {
    return rack.enabled || fail_slow.enabled || copy.enabled;
  }
};

struct SimConfig {
  double slot_seconds = 5.0;
  std::uint64_t seed = 1;
  ExecutionModel model = ExecutionModel::kStochastic;

  /// Hard system cap on concurrent copies per task (original + clones).
  /// Section 5: "the maximum number of clones for each running task is two
  /// under DollyMP, namely, there are at most three concurrent copies".
  int max_copies_per_task = 3;

  CloneKillPolicy kill_policy = CloneKillPolicy::kKillImmediately;

  BackgroundLoadConfig background;
  LocalityConfig locality;
  FailureConfig failures;
  FaultConfig faults;

  /// Duration penalty factor per extra rack a gang phase is split across:
  /// every task of a gang placed on R distinct racks runs with factor
  /// 1 + gang_spread_penalty * (R - 1) (all-reduce traffic crossing rack
  /// switches).  0 disables the penalty.
  double gang_spread_penalty = 0.15;

  /// Must be 1: a run is sequential.  Kept only because perfbench assigns
  /// it; nothing else reads it, and validate() rejects any other value.
  int threads = 1;

  /// Safety valve: abort if the clock passes this many slots.
  SimTime max_slots = 4'000'000;

  /// Record per-task records in the result (memory heavy for big runs).
  bool record_tasks = false;
  /// Record (slot, utilization) samples at scheduler invocations.
  bool record_utilization = false;

  /// Optional flight recorder (obs/recorder.h): every simulation event and
  /// scheduler decision is appended as a compact TraceRecord.  Null by
  /// default — each instrumentation site is one predicted-not-taken branch,
  /// so a recorder-off run pays nothing.  Not owned; must outlive the run.
  /// The recorder's stream hash and counters are surfaced in
  /// SimStats::recorder_* at the end of the run.
  Recorder* recorder = nullptr;

  /// Reject nonsensical configurations with a clear std::invalid_argument
  /// before a run silently misbehaves: non-positive slot length, zero copy
  /// cap, non-positive fault delay means, slowdown factors below 1, or
  /// repair/recovery delays that cannot complete within the max_slots
  /// horizon.  Called by the Simulator constructor and the CLI tools.
  void validate() const;
};

}  // namespace dollymp
