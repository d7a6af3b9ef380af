#include "dollymp/sim/faults.h"

#include <algorithm>
#include <stdexcept>

#include "dollymp/common/distributions.h"
#include "dollymp/common/state_io.h"
#include "dollymp/sim/execution.h"

namespace dollymp {

const char* to_string(FaultClass cls) {
  switch (cls) {
    case FaultClass::kCrash: return "crash";
    case FaultClass::kRack: return "rack";
    case FaultClass::kFailSlow: return "fail-slow";
    case FaultClass::kCopyFault: return "copy-fault";
  }
  return "?";
}

FaultEngine::FaultEngine(const Cluster& cluster, const FailureConfig& crash,
                         const FaultConfig& faults, double slot_seconds, Rng& rng)
    : crash_(crash), faults_(faults), slot_seconds_(slot_seconds), rng_(rng) {
  down_mask_.assign(cluster.size(), 0);
  rack_members_.resize(static_cast<std::size_t>(std::max(cluster.rack_count(), 0)));
  for (const auto& server : cluster.servers()) {
    const auto rack = static_cast<std::size_t>(server.rack());
    if (rack >= rack_members_.size()) rack_members_.resize(rack + 1);
    rack_members_[rack].push_back(server.id());
  }
}

SimTime FaultEngine::exponential_delay_slots(double mean_seconds) {
  // The legacy failure-delay draw, verbatim: exponential sample floored at
  // one slot.  Crash-class draws must stay bit-identical to the
  // pre-fault-matrix simulator when crash_dist is exponential.
  const ExponentialDist dist(mean_seconds);
  const double seconds = std::max(slot_seconds_, dist.sample(rng_));
  return seconds_to_slots(seconds, slot_seconds_);
}

SimTime FaultEngine::delay_slots(const FaultDelaySpec& spec) {
  if (spec.dist == FaultDelayDist::kWeibull) {
    const WeibullDist dist(spec.mean_seconds, spec.weibull_shape);
    const double seconds = std::max(slot_seconds_, dist.sample(rng_));
    return seconds_to_slots(seconds, slot_seconds_);
  }
  return exponential_delay_slots(spec.mean_seconds);
}

SimTime FaultEngine::crash_failure_delay() {
  if (faults_.crash_dist == FaultDelayDist::kWeibull) {
    const WeibullDist dist(crash_.mean_time_to_failure_seconds, faults_.crash_weibull_shape);
    const double seconds = std::max(slot_seconds_, dist.sample(rng_));
    return seconds_to_slots(seconds, slot_seconds_);
  }
  return exponential_delay_slots(crash_.mean_time_to_failure_seconds);
}

SimTime FaultEngine::crash_repair_delay() {
  // Repairs always use the exponential family (MTTR is a service-time
  // model, and keeping it fixed preserves the legacy draw for the default
  // crash_dist while Weibull lifetimes stay available).
  return exponential_delay_slots(crash_.mean_repair_seconds);
}

SimTime FaultEngine::rack_failure_delay() { return delay_slots(faults_.rack.time_to_failure); }
SimTime FaultEngine::rack_repair_delay() { return delay_slots(faults_.rack.repair); }
SimTime FaultEngine::fail_slow_onset_delay() {
  return delay_slots(faults_.fail_slow.time_to_onset);
}
SimTime FaultEngine::fail_slow_recovery_delay() {
  return delay_slots(faults_.fail_slow.recovery);
}
SimTime FaultEngine::copy_fault_delay() { return delay_slots(faults_.copy.inter_fault); }

SimTime FaultEngine::seed(MachineQueue& machine) {
  // Order is load-bearing: crash per-server draws come first so a
  // crash-only run consumes the failure stream exactly like the legacy
  // seed_failures() loop did.
  if (crash_.enabled) {
    for (std::size_t s = 0; s < down_mask_.size(); ++s) {
      machine.push({crash_failure_delay(), static_cast<std::int32_t>(s),
                    MachineEv::kServerFailure});
    }
  }
  if (faults_.rack.enabled) {
    for (std::size_t r = 0; r < rack_members_.size(); ++r) {
      if (rack_members_[r].empty()) continue;
      machine.push({rack_failure_delay(), static_cast<std::int32_t>(r),
                    MachineEv::kRackFailure});
    }
  }
  if (faults_.fail_slow.enabled) {
    for (std::size_t s = 0; s < down_mask_.size(); ++s) {
      machine.push({fail_slow_onset_delay(), static_cast<std::int32_t>(s),
                    MachineEv::kFailSlowOnset});
    }
  }
  return faults_.copy.enabled ? copy_fault_delay() : kNever;
}

bool FaultEngine::mark_down(ServerId server, FaultClass source) {
  auto& mask = down_mask_[static_cast<std::size_t>(server)];
  const auto bit = static_cast<std::uint8_t>(1U << static_cast<unsigned>(source));
  const bool was_up = mask == 0;
  mask |= bit;
  return was_up;
}

bool FaultEngine::mark_up(ServerId server, FaultClass source) {
  auto& mask = down_mask_[static_cast<std::size_t>(server)];
  const auto bit = static_cast<std::uint8_t>(1U << static_cast<unsigned>(source));
  if ((mask & bit) == 0) return false;  // duplicate repair: absorb
  mask &= static_cast<std::uint8_t>(~bit);
  return mask == 0;
}

void FaultEngine::save_state(StateWriter& w) const { w.pod_vec(down_mask_); }

void FaultEngine::load_state(StateReader& r) {
  std::vector<std::uint8_t> mask;
  r.pod_vec(mask);
  if (mask.size() != down_mask_.size()) {
    throw std::runtime_error("snapshot: fault-engine server count mismatch");
  }
  down_mask_ = std::move(mask);
}

}  // namespace dollymp
