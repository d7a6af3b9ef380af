// Scale gate for the struct-of-arrays overhaul: the simulator's memory and
// per-step cost across 30K / 300K / 1M-server google-trace inventories.
//
// Three series plus an explicit gate, emitted as BENCH_scale_step.json:
//
//   * BM_ScaleBuild/N — building the inventory (ServerTable appends with
//     model interning).  The bytes_per_server counter is the fleet's
//     resident footprint per row and must stay flat: the table is parallel
//     arrays, so there is nothing per-server that could grow with N.
//   * BM_ScaleStep/N — a full simulate() of a fixed workload over the
//     fleet.  The steps/s counter is the slot-processing rate; with the
//     placement index answering queries per *distinct allocation state*
//     and the event loop touching only active jobs, per-step latency must
//     grow far slower than the fleet (sub-linear).  loop_ms is the event
//     loop's wall time.
//   * BM_ScaleStepAware/N — the same fleets and jobs under DollyMP² with
//     straggler-aware placement, resilience and crash faults (four crashes
//     per simulated second across the fleet, whatever its size, so the
//     fault work does not grow with N).  Reports total_ms (setup plus loop), loop_ms and
//     slowest_round_ms, the longest schedule() call, timed by a forwarding
//     scheduler; Section 6.3.3 bounds one round at 50 ms.  No gate reads it:
//     it is the straggler-aware vs plain comparison in EXPERIMENTS.md.
//   * BM_ScaleGate — runs last (alphabetical registration does not matter;
//     it re-reads what the earlier series recorded) and fails the binary
//     (SkipWithError, exit 1 via micro_main) when bytes-per-server drifts
//     more than 10% across sizes or per-step latency scales worse than a
//     third of linear.
//
// CI runs the 30K and 300K points with an RSS ceiling (scale-smoke job);
// the 1M point documents headroom and runs in the full local sweep.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "bench_common.h"
#include "dollymp/common/stats.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

constexpr std::int64_t kSizes[] = {30000, 300000, 1000000};

/// Fixed workload: the fleet grows, the work does not — so any growth in
/// step latency is layout overhead, not extra scheduling work.
std::vector<JobSpec> scale_jobs(int count) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 50;
  TraceModel model(config, 17);
  auto jobs = model.sample_jobs(count);
  assign_poisson_arrivals(jobs, 10.0, 18);
  return jobs;
}

SimConfig scale_config() {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 17;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

/// Forwards every call to `inner` and times each schedule() call.
class RoundTimer final : public Scheduler {
 public:
  explicit RoundTimer(Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void on_job_arrival(SchedulerContext& ctx) override { inner_.on_job_arrival(ctx); }
  void schedule(SchedulerContext& ctx) override {
    const auto start = std::chrono::steady_clock::now();
    inner_.schedule(ctx);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    slowest_seconds = std::max(slowest_seconds, took.count());
  }
  void on_copy_finished(SchedulerContext& ctx, const JobRuntime& job,
                        const PhaseRuntime& phase, const TaskRuntime& task,
                        const CopyRuntime& copy) override {
    inner_.on_copy_finished(ctx, job, phase, task, copy);
  }
  void on_phase_completed(SchedulerContext& ctx, const JobRuntime& job,
                          const PhaseRuntime& phase) override {
    inner_.on_phase_completed(ctx, job, phase);
  }
  void on_job_completed(SchedulerContext& ctx, const JobRuntime& job) override {
    inner_.on_job_completed(ctx, job);
  }
  void on_server_failed(SchedulerContext& ctx, ServerId server) override {
    inner_.on_server_failed(ctx, server);
  }
  void on_server_repaired(SchedulerContext& ctx, ServerId server) override {
    inner_.on_server_repaired(ctx, server);
  }
  void on_copy_fault(SchedulerContext& ctx, const JobRuntime& job, const PhaseRuntime& phase,
                     const TaskRuntime& task, ServerId server) override {
    inner_.on_copy_fault(ctx, job, phase, task, server);
  }
  void on_server_degraded(SchedulerContext& ctx, ServerId server, double factor) override {
    inner_.on_server_degraded(ctx, server, factor);
  }
  void on_server_restored(SchedulerContext& ctx, ServerId server) override {
    inner_.on_server_restored(ctx, server);
  }
  void save_state(StateWriter& w) const override { inner_.save_state(w); }
  void load_state(StateReader& r) override { inner_.load_state(r); }

  double slowest_seconds = 0.0;

 private:
  Scheduler& inner_;
};

/// What each size measured, for the gate benchmark.
struct ScalePoint {
  double bytes_per_server = 0.0;
  double us_per_step = 0.0;
};
std::map<std::int64_t, ScalePoint>& points() {
  static std::map<std::int64_t, ScalePoint> map;
  return map;
}

void BM_ScaleBuild(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  double bytes_per_server = 0.0;
  for (auto _ : state) {
    const Cluster cluster = Cluster::google_trace(servers);
    bytes_per_server = static_cast<double>(cluster.table().memory_bytes()) /
                       static_cast<double>(servers);
    benchmark::DoNotOptimize(cluster.total_capacity());
  }
  points()[state.range(0)].bytes_per_server = bytes_per_server;
  state.counters["bytes_per_server"] = bytes_per_server;
  state.counters["servers/s"] = benchmark::Counter(
      static_cast<double>(servers), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_ScaleStep(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const Cluster cluster = Cluster::google_trace(servers);
  const auto jobs = scale_jobs(240);
  const SimConfig config = scale_config();
  SimStats last{};
  double us_per_step = 0.0;
  for (auto _ : state) {
    auto scheduler = make_scheduler("dollymp2");
    const SimResult result = simulate(cluster, config, jobs, *scheduler);
    benchmark::DoNotOptimize(result.makespan_seconds);
    last = result.stats;
    // wall_clock_seconds is taken inside run(), after the O(servers) setup
    // (cluster copy, index build, locality model) in the constructor — so
    // this is the event loop's own per-step cost.
    us_per_step = last.wall_clock_seconds * 1e6 /
                  static_cast<double>(std::max(1LL, last.slots_visited));
  }
  points()[state.range(0)].us_per_step = us_per_step;
  state.counters["steps"] = static_cast<double>(last.slots_visited);
  state.counters["us_per_step"] = us_per_step;
  state.counters["loop_ms"] = last.wall_clock_seconds * 1e3;
  state.counters["bytes_per_server"] = last.bytes_per_server;
  state.counters["table_mb"] =
      static_cast<double>(last.server_table_bytes) / (1024.0 * 1024.0);
  state.counters["store_mb"] =
      static_cast<double>(last.runtime_store_bytes) / (1024.0 * 1024.0);
  state.counters["rss_mb"] =
      static_cast<double>(last.peak_rss_bytes) / (1024.0 * 1024.0);
  state.counters["slab_blocks"] = static_cast<double>(last.copy_slab_blocks);
  // Allocations per step from the pool counters: fresh extents are
  // acquires - reuses; steady state should push this toward zero.
  state.counters["slab_alloc_per_step"] =
      static_cast<double>(last.copy_slab_acquires - last.copy_slab_reuses) /
      static_cast<double>(std::max(1LL, last.slots_visited));
}

void BM_ScaleStepAware(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const Cluster cluster = Cluster::google_trace(servers);
  const auto jobs = scale_jobs(240);
  SimConfig config = scale_config();
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 0.25 * static_cast<double>(servers);
  config.failures.mean_repair_seconds = 300.0;
  DollyMPConfig policy;
  policy.straggler_aware = true;
  policy.resilience.enabled = true;
  SimStats last{};
  double total_seconds = 0.0;
  double slowest_seconds = 0.0;
  for (auto _ : state) {
    DollyMPScheduler scheduler(policy);
    RoundTimer timer(scheduler);
    const auto start = std::chrono::steady_clock::now();
    const SimResult result = simulate(cluster, config, jobs, timer);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(result.makespan_seconds);
    last = result.stats;
    total_seconds = took.count();
    slowest_seconds = timer.slowest_seconds;
  }
  state.counters["total_ms"] = total_seconds * 1e3;
  state.counters["loop_ms"] = last.wall_clock_seconds * 1e3;
  state.counters["slowest_round_ms"] = slowest_seconds * 1e3;
  state.counters["steps"] = static_cast<double>(last.slots_visited);
  state.counters["crashes"] = static_cast<double>(last.events_server_failure);
  state.counters["copies_killed"] = static_cast<double>(last.copies_killed_by_faults);
  state.counters["rss_mb"] =
      static_cast<double>(last.peak_rss_bytes) / (1024.0 * 1024.0);
}

/// The gate: consumes what the series recorded.  Only meaningful when the
/// full sweep ran (CI's filtered 300K smoke run skips it by name).
void BM_ScaleGate(benchmark::State& state) {
  for (auto _ : state) {
  }
  const auto& map = points();
  for (const std::int64_t size : kSizes) {
    if (map.find(size) == map.end() || map.at(size).bytes_per_server <= 0.0 ||
        map.at(size).us_per_step <= 0.0) {
      state.SkipWithError("gate needs the full 30K/300K/1M sweep first");
      return;
    }
  }
  const ScalePoint& small = map.at(kSizes[0]);
  for (const std::int64_t size : kSizes) {
    const ScalePoint& p = map.at(size);
    // Bytes per server flat within 10% of the 30K point.
    const double drift = p.bytes_per_server / small.bytes_per_server;
    if (drift < 0.9 || drift > 1.1) {
      state.SkipWithError("bytes_per_server drifted >10% across fleet sizes");
      return;
    }
    // Per-step latency sub-linear: a 33x fleet may cost at most a third of
    // the linear 33x (noise floor of 3x for the small ratios).
    const double fleets = static_cast<double>(size) / static_cast<double>(kSizes[0]);
    const double slowdown = p.us_per_step / small.us_per_step;
    if (slowdown > std::max(3.0, fleets / 3.0)) {
      state.SkipWithError("per-step latency scaled superlinearly with fleet size");
      return;
    }
    state.counters["x" + std::to_string(size / 1000) + "k_step"] = slowdown;
    state.counters["x" + std::to_string(size / 1000) + "k_bytes"] = drift;
  }
}

}  // namespace

BENCHMARK(BM_ScaleBuild)
    ->Arg(30000)
    ->Arg(300000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleStep)
    ->Arg(30000)
    ->Arg(300000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleStepAware)
    ->Arg(30000)
    ->Arg(300000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleGate);
