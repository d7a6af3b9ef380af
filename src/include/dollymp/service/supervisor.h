// Crash-safe supervised execution of a service session (DESIGN.md §4.9).
//
// run_supervised forks the session into a child process and babysits it:
// the child advances the session in fixed checkpoint strides, publishing a
// rotation snapshot (common/state_io.h SnapshotRotation) and an atomic
// progress file at every stride boundary; the parent waits, restarts a
// crashed or watchdog-stalled child from the newest *valid* snapshot
// (corrupted generations are quarantined and the previous one picked up
// automatically), and returns the final progress once the horizon is
// reached.
//
// Recovery is bit-identical, not merely close: snapshots are only cut at
// stride boundaries, strides are a multiple of the session's pump chunk,
// and the session's decision stream is a pure function of (config, horizon
// sequence) — so whatever partial work a killed child had done past its
// last snapshot is discarded and replayed identically by its successor.
// Any kill point therefore yields the same final stream hash as an
// uninterrupted run (docs/ALGORITHMS.md §20; proven across the
// policy × faults matrix in tests/test_supervisor.cpp).
//
// POSIX-only (fork/waitpid/kill); on other platforms run_supervised throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/service/session.h"

namespace dollymp {

struct SupervisorOptions {
  /// Base path of the snapshot rotation (files `<base>.latest`,
  /// `<base>.prev`, quarantined generations `<...>.quarantined.N`) and of
  /// the progress file `<base>.progress`.
  std::string snapshot_base;
  /// Slot the supervised run should reach.
  SimTime horizon_slots = 0;
  /// Snapshot cadence in slots.  Must be a positive multiple of the
  /// session's pump_slots so every snapshot falls on a canonical chunk
  /// boundary — the bit-identity precondition.
  SimTime checkpoint_stride_slots = 0;
  /// Give up after this many child restarts (a crash loop is a bug, not an
  /// outage to ride out).
  int max_restarts = 8;
  /// Wall-clock seconds without child progress before the watchdog assumes
  /// a hang, kills the child and restarts it.
  double watchdog_seconds = 30.0;
  /// Explicit snapshot to resume the FIRST child from, instead of the
  /// rotation's newest valid generation.  A quarantined path is refused.
  std::string resume_from;
  /// Fault-injection hook for the recovery proof: child k (0-based) raises
  /// SIGKILL on itself as soon as its clock reaches kill_at_slots[k] —
  /// deliberately *before* that stride's snapshot is cut, so the successor
  /// must recover from strictly older state.  Children beyond the list run
  /// to completion.
  std::vector<SimTime> kill_at_slots;
};

struct SupervisorResult {
  SimTime final_clock = 0;
  std::uint64_t stream_hash = 0;
  std::uint64_t records_written = 0;
  long long jobs_ingested = 0;
  long long jobs_completed = 0;
  long long arrivals_shed = 0;
  int restarts = 0;               ///< children spawned beyond the first
  int snapshots_quarantined = 0;  ///< corrupted generations moved aside
};

/// Run `config` over `cluster` under supervision until
/// options.horizon_slots.  Throws std::invalid_argument on bad options and
/// std::runtime_error when the child cannot be kept alive (restart budget
/// exhausted, or a crash with no valid snapshot to resume from).
///
/// Must not be called while the calling process has live worker threads:
/// the child is a fork() without exec, and only the forking thread survives
/// in it.
[[nodiscard]] SupervisorResult run_supervised(const Cluster& cluster,
                                              const ServiceConfig& config,
                                              const SupervisorOptions& options);

}  // namespace dollymp
