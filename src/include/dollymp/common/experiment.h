// The experiment runner: paired comparisons and the replication sweep,
// both with whole-run parallelism.
//
// One simulation runs on one core.  This module parallelizes the figure
// grid of the paper's §6 evaluation instead: policies, seeds and fault
// matrices are independent runs, so they fan across a thread pool with no
// shared mutable state at all (each run copies the cluster prototype and
// builds a fresh scheduler from its factory).  Results come back in input
// order, and the sweep aggregates on the calling thread in fixed grid
// order, so the aggregate — including the rendered JSON, byte for byte —
// is identical for every thread count.  That invariant is what
// test_sweep.cpp pins and what lets the chaos and comparison matrices run
// as one command (tools/dollymp_sweep.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/stats.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/metrics/records.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/types.h"

namespace dollymp {

struct ComparisonEntry {
  std::string name;          ///< label carried into the results
  SchedulerFactory factory;  ///< invoked once per run (thread safety)
};

struct ComparisonSpec {
  Cluster cluster;
  SimConfig config;
  std::vector<JobSpec> jobs;
};

/// Run every scheduler on the same workload and environment seed (the
/// paired-comparison setup of Figs. 8-11).  `pool` may be null for serial
/// execution.  Results are in `entries` order, each labelled with its
/// entry's name.
[[nodiscard]] std::vector<SimResult> run_comparison(
    const ComparisonSpec& spec, const std::vector<ComparisonEntry>& entries,
    ThreadPool* pool = nullptr);

/// One fault environment of the sweep grid: a named override of the base
/// config's failure/fault matrix (the chaos harness's fault classes, plus
/// "healthy" = everything off).
struct SweepFaultPreset {
  std::string name;
  FailureConfig failures;
  FaultConfig faults;
};

/// The preset catalogue the chaos matrix uses, by name: "healthy", "crash"
/// (independent crashes), "rack", "failslow", "copyfault", "all".  Throws
/// std::invalid_argument on an unknown name, listing the catalogue.
[[nodiscard]] SweepFaultPreset make_fault_preset(const std::string& name);

/// The full replication grid.  Every (policy × fault preset × seed) triple
/// is one independent simulation of the same workload over a copy of
/// `cluster`; `base` supplies everything the grid does not override (its
/// seed/failures/faults fields are overwritten per cell, and any attached
/// recorder is dropped — replications must not share one).
struct SweepSpec {
  Cluster cluster;
  SimConfig base;
  std::vector<JobSpec> jobs;
  std::vector<ComparisonEntry> policies;
  /// Empty means one pass-through preset named "base" keeping base's own
  /// failure/fault settings.
  std::vector<SweepFaultPreset> fault_presets;
  /// Environment seeds (durations/background/locality re-realized per
  /// seed).  Empty means {base.seed}.
  std::vector<std::uint64_t> seeds;
};

/// Mean with a normal-approximation 95% confidence interval
/// (mean ± 1.96·sd/√n; degenerate to the mean when n < 2).
struct MeanCi {
  std::size_t n = 0;
  double mean = 0.0;
  double sd = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};
[[nodiscard]] MeanCi mean_ci95(const RunningStats& stats);

/// Aggregates for one (policy, fault preset) cell across its seeds.
struct SweepCell {
  std::string policy;
  std::string fault;
  std::size_t replications = 0;
  /// Across seeds: one sample per replication.
  RunningStats total_flowtime_seconds;
  RunningStats mean_flowtime_seconds;
  RunningStats makespan_seconds;
  RunningStats cloned_task_fraction;
  /// Pooled per-job samples in (seed, job) order across all replications.
  Cdf flowtime_seconds;      ///< finish − arrival
  Cdf running_time_seconds;  ///< finish − first start
};

struct SweepResult {
  std::vector<SweepCell> cells;  ///< policy-major, preset-minor grid order
  std::size_t replications = 0;
  /// Wall-clock of the whole sweep.  Deliberately NOT part of the rendered
  /// JSON (which must be byte-deterministic); the bench and the CLI report
  /// it separately as replications/sec.
  double wall_clock_seconds = 0.0;
};

/// Run the grid, fanning replications across `pool` (null or single-worker
/// runs serially inline).  Results and aggregates are independent of the
/// thread count.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, ThreadPool* pool = nullptr);

/// Deterministic JSON rendering of a sweep: per-cell means, 95% CIs and
/// CDF quantile curves.  Contains no wall-clock, host or thread-count
/// fields, so equal sweeps render equal bytes regardless of parallelism.
[[nodiscard]] std::string render_sweep_json(const SweepResult& result);

}  // namespace dollymp
