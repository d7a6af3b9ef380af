// Replay-divergence verification.
//
// Turns "same seed, bit-identical schedule" from a hand-written paired-seed
// test pattern into a reusable subsystem: run a config twice (or once
// against a saved log), record both flight-recorder streams, compare the
// incremental hashes, and on mismatch report the *first divergent record*
// decoded on both sides.  Because the stream totally orders every event and
// decision the simulator makes, the first divergence is the earliest point
// at which the two executions stopped being the same run — everything
// before it is certified identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/obs/recorder.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/simulator.h"

namespace dollymp {

struct DivergenceReport {
  bool identical = false;
  std::uint64_t hash_a = 0;
  std::uint64_t hash_b = 0;
  std::size_t records_a = 0;
  std::size_t records_b = 0;
  /// Index of the first record where the streams differ (only meaningful
  /// when !identical).  Equals min(records_a, records_b) when one stream is
  /// a strict prefix of the other.
  std::size_t first_divergence = 0;
  /// Decoded records at the divergence point; "<end of stream>" for the
  /// shorter side of a prefix divergence.
  std::string lhs;
  std::string rhs;

  [[nodiscard]] std::string to_string() const;
};

/// Compare two record streams; O(min length) with the first mismatch
/// decoded.  Hashes are recomputed from the streams so the report is
/// self-contained even for streams loaded from disk.
[[nodiscard]] DivergenceReport compare_streams(const std::vector<TraceRecord>& a,
                                               const std::vector<TraceRecord>& b);

/// Run `(cluster, config, jobs)` twice with fresh scheduler instances from
/// `factory`, each under an unbounded recorder, and compare the streams.
/// `config.recorder` is overridden internally; the caller's pointer is
/// never used.
[[nodiscard]] DivergenceReport verify_replay(const Cluster& cluster,
                                             const SimConfig& config,
                                             const std::vector<JobSpec>& jobs,
                                             const SchedulerFactory& factory);

/// Run once and compare against a previously captured stream (e.g. a
/// load_log()ed reference): the live run is side A, the reference side B.
[[nodiscard]] DivergenceReport verify_against_log(const Cluster& cluster,
                                                  const SimConfig& config,
                                                  const std::vector<JobSpec>& jobs,
                                                  const SchedulerFactory& factory,
                                                  const std::vector<TraceRecord>& reference);

}  // namespace dollymp
