// Application builders: WordCount and PageRank DAG jobs.
//
// Section 6.2 builds its workload from two applications, WordCount (one
// map->reduce stage; inputs of 4 or 10 GB) and PageRank (iterative; inputs
// of 1 or 10 GB).  The builders reproduce the phase structure, task counts
// scaled from input size through an HDFS-style block size, per-task
// multi-resource demands, and duration statistics with the measured
// straggler dispersion.  Absolute seconds are calibrated so a 4 GB
// WordCount takes a few hundred seconds on the paper's 30-node cluster,
// matching Fig. 1's y-axis scale.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/job/job.h"

namespace dollymp {

/// Knobs shared by the builders; defaults follow the paper's setup.
struct AppConfig {
  double block_gb = 0.25;          ///< HDFS block size driving map-task count
  double map_theta_per_gb = 11.0;  ///< mean map seconds per GB of block data
  double reduce_fraction = 0.25;   ///< reduce tasks per map task
  double straggler_cv = 0.9;       ///< sigma/theta of task durations
  Resources map_demand{1.0, 2.0};
  Resources reduce_demand{1.0, 3.0};
};

/// WordCount: map phase (one task per input block) followed by a reduce
/// phase that depends on it.
[[nodiscard]] JobSpec make_wordcount(JobId id, double input_gb, double arrival_seconds = 0.0,
                                     const AppConfig& config = {});

/// PageRank: an init/partition phase, then `iterations` supersteps, each a
/// compute phase followed by an aggregation barrier phase; the chain gives
/// the sequential-DAG dependency structure the paper evaluates.
[[nodiscard]] JobSpec make_pagerank(JobId id, double input_gb, int iterations = 3,
                                    double arrival_seconds = 0.0,
                                    const AppConfig& config = {});

/// TeraSort: sample -> partition-sort -> merge, the classic three-stage
/// sort benchmark.  The sort phase is memory-heavy (spill buffers), the
/// merge phase network/CPU bound — a different packing profile from
/// WordCount, useful for exercising multi-resource trade-offs.
[[nodiscard]] JobSpec make_terasort(JobId id, double input_gb,
                                    double arrival_seconds = 0.0,
                                    const AppConfig& config = {});

/// A SQL-style analytic query plan with a genuine diamond DAG: two scan
/// phases feed a join, which feeds an aggregate — the only builder whose
/// DAG is not a chain, exercising the multi-parent precedence (Eq. 7) and
/// critical-path logic on branching structures.
[[nodiscard]] JobSpec make_sql_join(JobId id, double left_gb, double right_gb,
                                    double arrival_seconds = 0.0,
                                    const AppConfig& config = {});

/// Knobs for the gang-scheduled ML training builder.
struct MlTrainConfig {
  int world_size = 8;    ///< data-parallel ranks; the gang width of each step
  int steps = 4;         ///< chained synchronous training steps
  /// Per-rank demand: GPU-integral (dim 2), with the CPU/host-memory
  /// sidecar each rank pins.
  Resources rank_demand{4.0, 24.0, 1.0};
  double setup_theta_seconds = 90.0;  ///< data download + graph compile
  double step_theta_seconds = 150.0;  ///< mean seconds per synchronous step
  /// Synchronous steps disperse far less than map tasks (the all-reduce
  /// barrier is the straggler, not the compute), but not zero: input
  /// pipeline jitter remains.
  double straggler_cv = 0.25;
};

/// Distributed ML training: a CPU-only setup phase, then `steps` chained
/// gang phases of `world_size` ranks each (PhaseSpec::gang — placed
/// all-or-nothing, mirroring how a partial world cannot make progress
/// through an all-reduce).  The iteration chain reuses the PageRank
/// superstep structure; each step depends on the previous one.
[[nodiscard]] JobSpec make_mltrain(JobId id, double arrival_seconds = 0.0,
                                   const MlTrainConfig& config = {});

/// The GPU scenario's workload mix (the tools' --gpus K): append `count`
/// default make_mltrain jobs to `jobs`, numbered past its largest id.  They
/// arrive as a Poisson stream seeded by `seed` whose mean gap is four times
/// `analytics_gap_seconds`: training jobs trickle in more slowly than the
/// analytics stream.
void append_mltrain_mix(std::vector<JobSpec>& jobs, int count,
                        double analytics_gap_seconds, std::uint64_t seed);

}  // namespace dollymp
