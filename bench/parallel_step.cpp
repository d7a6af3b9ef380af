// Step throughput of the deterministic parallel scheduling core at trace
// scale: the acceptance benchmark for SimConfig::threads.
//
// Two series, swept over threads = 1, 2, 4, 8 and emitted as
// BENCH_parallel_step.json:
//
//   * BM_ParallelStep/30000/T — one scheduling round (priority oracle +
//     placement pass) for DollyMP^2 over the 30K-server google-trace
//     inventory, the Section 6.3 Resource-Manager-latency setting.
//   * BM_ParallelSimulate/30000/T — a full simulate() of a small workload
//     over the same fleet with the placement index and speculation passes
//     engaged, so every sharded site (priority recompute, round filter,
//     straggler scan) contributes.
//
// Thread counts above the host's hardware concurrency are skipped at
// registration (oversubscribed runs measure scheduler-induced context
// switching, not the sharded path) — on a single-core host only the
// threads=1 baseline runs and the speedup must be read from a multi-core
// run (see EXPERIMENTS.md).  Every series measures wall-clock (real_time,
// the primary column) AND process CPU time (cpu_time), so the JSON shows
// both the latency win and the parallelism cost; the `cores` counter
// records the detected hardware concurrency and `workers` the pool size
// the threads value resolved to.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

std::vector<JobSpec> fleet_jobs(int count, bool arrivals) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 50;
  TraceModel model(config, 11);
  auto jobs = model.sample_jobs(count);
  if (arrivals) assign_poisson_arrivals(jobs, 10.0, 12);
  return jobs;
}

SimConfig fleet_config(int threads) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 11;
  config.background.enabled = false;
  config.threads = threads;
  return config;
}

unsigned detected_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void BM_ParallelStep(benchmark::State& state, std::size_t servers, int threads) {
  DryRunContext ctx(Cluster::google_trace(servers), fleet_jobs(400, false),
                    fleet_config(threads));
  auto scheduler = make_scheduler("dollymp2");
  for (auto _ : state) {
    scheduler->reset();
    scheduler->on_job_arrival(ctx);
    scheduler->schedule(ctx);
    state.PauseTiming();
    ctx.reset_placements();
    state.ResumeTiming();
  }
  ThreadPool* pool = ctx.worker_pool();
  state.counters["cores"] = static_cast<double>(detected_cores());
  state.counters["workers"] = static_cast<double>(pool != nullptr ? pool->size() : 1);
  state.counters["par_sections"] = static_cast<double>(ctx.shard_stats()->sections);
}

void BM_ParallelSimulate(benchmark::State& state, std::size_t servers, int threads) {
  const Cluster cluster = Cluster::google_trace(servers);
  const auto jobs = fleet_jobs(40, true);
  const SimConfig config = fleet_config(threads);
  long long sections = 0;
  long long arena_grows = 0;
  double workers = 1.0;
  for (auto _ : state) {
    DollyMPConfig policy;
    policy.clone_budget = 2;
    policy.straggler_aware = true;
    DollyMPScheduler scheduler(policy);
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    benchmark::DoNotOptimize(result.makespan_seconds);
    sections = result.stats.parallel_sections;
    arena_grows = result.stats.parallel_arena_grows;
    workers = static_cast<double>(result.stats.threads_resolved);
  }
  state.counters["cores"] = static_cast<double>(detected_cores());
  state.counters["workers"] = workers;
  state.counters["par_sections"] = static_cast<double>(sections);
  // Scratch-arena growths inside ONE run: warm-up only, never proportional
  // to the run length (the zero-steady-state-allocation claim).
  state.counters["arena_grows"] = static_cast<double>(arena_grows);
}

/// Register the threads = 1, 2, 4, 8 series, skipping counts the host
/// cannot back with real cores (threads=1 always runs as the baseline).
bool register_series() {
  const auto cores = static_cast<int>(detected_cores());
  for (const int threads : {1, 2, 4, 8}) {
    if (threads > 1 && threads > cores) continue;  // graceful skip
    const std::string suffix = "/30000/" + std::to_string(threads);
    benchmark::RegisterBenchmark(("BM_ParallelStep" + suffix).c_str(),
                                 [threads](benchmark::State& s) {
                                   BM_ParallelStep(s, 30000, threads);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_ParallelSimulate" + suffix).c_str(),
                                 [threads](benchmark::State& s) {
                                   BM_ParallelSimulate(s, 30000, threads);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
  }
  return true;
}

[[maybe_unused]] const bool kRegistered = register_series();

}  // namespace
