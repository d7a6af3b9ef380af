// Open-loop streaming arrival generation for service mode.
//
// Batch runs hand the simulator a complete job list up front; a service
// run faces an unbounded arrival process and must ingest jobs as simulated
// time advances.  This source models that process as a non-homogeneous
// Poisson stream with two composable modulations observed in production
// traces:
//
//   * a diurnal cycle — the rate swings sinusoidally around its base with
//     a configurable amplitude and period (day/night load);
//   * a flash crowd — a multiplicative rate surge over one interval
//     (a product launch, a retry storm).
//
// Generation uses Poisson thinning: candidate arrivals are drawn from a
// homogeneous process at the envelope rate lambda_max >= lambda(t)
// everywhere, and each candidate at time t survives with probability
// lambda(t) / lambda_max.  Thinning keeps the draw count per accepted
// arrival bounded and — crucially for checkpointing — makes the stream a
// pure function of (config, RNG position, last arrival time): capturing
// those three reproduces every future arrival bit-identically.
//
// Job bodies are sampled from the workload generators in workload/apps.h
// (wordcount / pagerank / terasort / sql_join) with exponentially
// distributed input sizes, so a long stream exercises the full size mix.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/common/rng.h"
#include "dollymp/sim/types.h"

namespace dollymp {

class StateWriter;
class StateReader;

struct ArrivalConfig {
  /// Base Poisson arrival rate in jobs per simulated second.
  double rate_per_second = 0.5;

  // ---- diurnal modulation --------------------------------------------------
  /// Relative swing in [0, 1): lambda(t) carries a factor
  /// 1 + amplitude * sin(2*pi*t / period).  0 disables the cycle.
  double diurnal_amplitude = 0.0;
  double diurnal_period_seconds = 86400.0;

  // ---- flash crowd ---------------------------------------------------------
  /// Rate multiplier (>= 1) applied inside
  /// [flash_start_seconds, flash_start_seconds + flash_duration_seconds).
  /// flash_start_seconds < 0 disables the surge.
  double flash_multiplier = 1.0;
  double flash_start_seconds = -1.0;
  double flash_duration_seconds = 0.0;

  // ---- job bodies ----------------------------------------------------------
  /// Mean input size of sampled jobs; sizes are Exp(mean) clamped to
  /// [0.05, 20 * mean] so a single draw cannot dwarf the cluster.
  double mean_input_gb = 2.0;

  /// Seed of the source's private RNG stream (independent of the
  /// simulator's streams; SimConfig::seed does not feed it).
  std::uint64_t seed = 1;

  /// JobId of the first emitted job; subsequent ids are sequential.
  JobId first_job_id = 0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class ArrivalSource {
 public:
  explicit ArrivalSource(ArrivalConfig config);

  /// Arrival time (seconds) of the next pending job.  Knowing it without
  /// materializing the job lets the session pump arrivals lazily.
  [[nodiscard]] double next_arrival_seconds() const { return pending_seconds_; }

  /// Materialize and append every job arriving strictly before
  /// `horizon_seconds`; returns the number emitted.  Chunking is free:
  /// emit_until(a) then emit_until(b) produces the same jobs as one
  /// emit_until(b) because the RNG is consumed in emission order.
  std::size_t emit_until(double horizon_seconds, std::vector<JobSpec>& out);

  [[nodiscard]] const ArrivalConfig& config() const { return config_; }

  /// Instantaneous rate lambda(t) — exposed for tests.
  [[nodiscard]] double rate_at(double t_seconds) const;

  // ---- checkpoint/restore --------------------------------------------------
  /// RNG position + pending arrival + next id.  The config is NOT part of
  /// the stream: the restoring side constructs with the same config (the
  /// service checkpoint envelope carries and checks it).
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  /// Thin the envelope process forward from pending_seconds_ to the next
  /// accepted arrival.
  void advance();
  [[nodiscard]] JobSpec sample_job(double arrival_seconds);

  ArrivalConfig config_;
  Rng rng_;
  double lambda_max_ = 0.0;
  double pending_seconds_ = 0.0;
  JobId next_id_ = 0;
};

}  // namespace dollymp
