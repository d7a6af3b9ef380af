#include "dollymp/sim/types.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace dollymp {

namespace {

void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Shared checks for one fault delay: positive mean, positive Weibull shape
/// when that family is selected.  `what` names the field in the message.
void check_delay(const FaultDelaySpec& spec, const char* what) {
  require(spec.mean_seconds > 0.0,
          std::string("SimConfig: ") + what + " mean must be > 0");
  if (spec.dist == FaultDelayDist::kWeibull) {
    require(spec.weibull_shape > 0.0,
            std::string("SimConfig: ") + what + " Weibull shape must be > 0");
  }
}

}  // namespace

const char* to_string(ExecutionModel model) {
  switch (model) {
    case ExecutionModel::kStochastic: return "stochastic";
    case ExecutionModel::kWorkBased: return "work-based";
  }
  return "?";
}

const char* to_string(CloneKillPolicy policy) {
  switch (policy) {
    case CloneKillPolicy::kKillImmediately: return "kill-immediately";
    case CloneKillPolicy::kKeepBestLocality: return "keep-best-locality";
  }
  return "?";
}

const char* to_string(FaultDelayDist dist) {
  switch (dist) {
    case FaultDelayDist::kExponential: return "exponential";
    case FaultDelayDist::kWeibull: return "weibull";
  }
  return "?";
}

void SimConfig::validate() const {
  // The first two texts match the Simulator constructor's historical
  // messages so callers keying on them keep working.
  require(slot_seconds > 0.0, "SimConfig: slot_seconds must be > 0");
  require(max_copies_per_task >= 1, "SimConfig: max_copies_per_task must be >= 1");
  require(max_slots >= 1, "SimConfig: max_slots must be >= 1");
  require(threads == 1,
          "SimConfig: threads must be 1 (the intra-run parallel core was removed; "
          "replications run in parallel through the sweep driver)");
  require(gang_spread_penalty >= 0.0 && std::isfinite(gang_spread_penalty),
          "SimConfig: gang_spread_penalty must be finite and >= 0");
  // Infinity slips past the `> 0` checks above; a non-finite slot length
  // turns every derived time into NaN soup downstream.
  require(std::isfinite(slot_seconds), "SimConfig: slot_seconds must be finite");
  if (background.enabled) {
    require(background.mean_interval_seconds > 0.0,
            "SimConfig: background.mean_interval_seconds must be > 0");
    require(background.contention_probability >= 0.0 &&
                background.contention_probability <= 1.0,
            "SimConfig: background.contention_probability must be in [0, 1]");
    require(background.slowdown_shape > 0.0,
            "SimConfig: background.slowdown_shape must be > 0");
    require(background.max_slowdown >= 1.0,
            "SimConfig: background.max_slowdown must be >= 1");
  }
  if (locality.enabled) {
    require(locality.replicas >= 1, "SimConfig: locality.replicas must be >= 1");
    require(locality.rack_penalty >= 1.0,
            "SimConfig: locality.rack_penalty must be >= 1");
    require(locality.off_rack_penalty >= 1.0,
            "SimConfig: locality.off_rack_penalty must be >= 1");
  }

  // Mean repair/recovery delays that exceed the simulation horizon make the
  // run overwhelmingly likely to trip the max_slots safety valve with every
  // machine down — reject up front with a message naming the culprit.
  const double horizon_seconds = static_cast<double>(max_slots) * slot_seconds;

  if (failures.enabled) {
    require(failures.mean_time_to_failure_seconds > 0.0,
            "SimConfig: failures.mean_time_to_failure_seconds must be > 0");
    require(failures.mean_repair_seconds > 0.0,
            "SimConfig: failures.mean_repair_seconds must be > 0");
    require(failures.mean_repair_seconds <= horizon_seconds,
            "SimConfig: failures.mean_repair_seconds exceeds the max_slots horizon");
    if (faults.crash_dist == FaultDelayDist::kWeibull) {
      require(faults.crash_weibull_shape > 0.0,
              "SimConfig: crash_weibull_shape must be > 0");
    }
  }
  if (faults.rack.enabled) {
    check_delay(faults.rack.time_to_failure, "rack time_to_failure");
    check_delay(faults.rack.repair, "rack repair");
    require(faults.rack.repair.mean_seconds <= horizon_seconds,
            "SimConfig: rack repair mean exceeds the max_slots horizon");
  }
  if (faults.fail_slow.enabled) {
    require(faults.fail_slow.slowdown_factor >= 1.0,
            "SimConfig: fail_slow.slowdown_factor must be >= 1");
    check_delay(faults.fail_slow.time_to_onset, "fail-slow time_to_onset");
    check_delay(faults.fail_slow.recovery, "fail-slow recovery");
    require(faults.fail_slow.recovery.mean_seconds <= horizon_seconds,
            "SimConfig: fail-slow recovery mean exceeds the max_slots horizon");
  }
  if (faults.copy.enabled) {
    check_delay(faults.copy.inter_fault, "copy-fault inter_fault");
  }
}

}  // namespace dollymp
