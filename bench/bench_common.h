// Shared harness for the figure/table reproduction benches.
//
// Every bench binary prints (a) the measured rows/series for its figure and
// (b) "[shape]" lines comparing the measured trend against what the paper
// reports.  Shape lines state the paper's claim, the measured value, and
// whether the qualitative trend holds — absolute numbers are not expected
// to match (our substrate is a simulator, DESIGN.md section 1).  A bench
// exits non-zero when any of its claims deviates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/stats.h"
#include "dollymp/metrics/report.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/runtime_store.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/apps.h"

namespace dollymp::bench {

/// Factory over every policy in the library.  Keys: "capacity", "drf",
/// "tetris", "carbyne", "srpt", "svf", "hopper", "dollymp0".."dollymp3",
/// "dollymp2-naive" (clones largest-first — the Section 4.1 ablation).
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(const std::string& key);

/// Standard simulation configuration used by the deployment-style benches
/// (5 s slots, background load + locality on, per Section 6).
[[nodiscard]] SimConfig deployment_config(std::uint64_t seed);

/// Run one workload under one scheduler key.
[[nodiscard]] SimResult run_workload(const Cluster& cluster, const SimConfig& config,
                                     const std::vector<JobSpec>& jobs,
                                     const std::string& scheduler_key);

/// The evaluation's application mix (Section 6.2): `count` jobs, split
/// evenly between PageRank (half 10 GB, half 1 GB inputs) and WordCount
/// (10 GB), durations calibrated to the paper's 30-node scale.
[[nodiscard]] std::vector<JobSpec> paper_app_mix(int count, std::uint64_t seed);

/// Homogeneous application suites for the Fig. 5-7 experiments.
[[nodiscard]] std::vector<JobSpec> pagerank_suite(int count, std::uint64_t seed);
[[nodiscard]] std::vector<JobSpec> wordcount_suite(int count, std::uint64_t seed);

/// The AppConfig used by all paper-scale workloads (calibrated so a 4 GB
/// WordCount takes a few hundred seconds on the 30-node cluster, Fig. 1).
[[nodiscard]] AppConfig paper_app_config();

/// Print a CDF as ten quantile rows per labelled series, like the paper's
/// CDF figures.
void print_cdf_figure(const std::string& title,
                      const std::vector<std::pair<std::string, Cdf>>& series);

/// Emit a shape-check line: the paper's claim, the measured value and
/// whether the measured trend matches.  A DEVIATES verdict is counted.
void shape_check(const std::string& claim, double measured, bool holds);

/// A figure bench's exit status: 1 when any shape check deviated (with a
/// count on stderr), 0 when every claim held.  Verdicts come from seeded
/// simulations, so the status is deterministic.
[[nodiscard]] int shape_status();

/// Sum of flowtimes table for a set of results, followed by the
/// control-plane counter table (scheduler invocations, fast-forwarded
/// slots, events by kind, placement funnel).
void print_flowtime_table(const std::string& title, const std::vector<SimResult>& results);

/// A stand-alone SchedulerContext for latency measurements (Section 6.3.3):
/// placements allocate real server resources, create copy records and
/// update the context's PlacementIndex, but no events are generated and
/// time never advances — exactly the work a Resource Manager does when
/// making one round of scheduling decisions.
class DryRunContext final : public SchedulerContext {
 public:
  /// Materializes `jobs` as already-arrived runtime state over `cluster`.
  /// The specs are copied in: JobRuntime holds pointers into them for the
  /// lifetime of the context.
  DryRunContext(Cluster cluster, std::vector<JobSpec> jobs, const SimConfig& config);

  [[nodiscard]] SimTime now() const override { return 0; }
  [[nodiscard]] double slot_seconds() const override { return config_.slot_seconds; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const SimConfig& config() const override { return config_; }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override { return active_; }
  [[nodiscard]] Rng& policy_rng() override { return rng_; }
  [[nodiscard]] PlacementIndex* placement_index() override { return &index_; }

  bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                  ServerId server) override;
  bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                              ServerId server) override {
    return place_copy(job, phase, task, server);
  }
  /// Time never advances in a dry run; wakeup requests are meaningless.
  void request_wakeup(SimTime /*slot*/) override {}

  /// Undo all placements so the next measured round starts from scratch,
  /// with a freshly built index (benches pause timing around this).
  void reset_placements();

  [[nodiscard]] int placements() const { return placements_; }

  /// The flat runtime store backing the dry run — exposed so micro benches
  /// can report pool counters (allocations per round) alongside timings.
  [[nodiscard]] const RuntimeStore& store() const { return store_; }

 private:
  Cluster cluster_;
  PlacementIndex index_;
  SimConfig config_;
  LocalityModel locality_;
  Rng rng_{7};
  std::vector<JobSpec> specs_;  ///< owned: JobRuntime::spec points in here
  RuntimeStore store_;
  std::vector<JobRuntime>& jobs_ = store_.jobs();
  std::vector<JobRuntime*> active_;
  int placements_ = 0;
};

}  // namespace dollymp::bench
