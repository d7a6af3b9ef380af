// Microbenchmark: end-to-end simulator throughput — full runs per second
// and copies simulated per second across workload scales and execution
// models.  This bounds how large a trace the harness can replay in
// reasonable wall-clock time.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

std::vector<JobSpec> sim_jobs(int count, std::uint64_t seed) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 100;
  TraceModel model(config, seed);
  auto jobs = model.sample_jobs(count);
  assign_poisson_arrivals(jobs, 5.0, seed + 1);
  return jobs;
}

void BM_SimulatorStochastic(benchmark::State& state) {
  const auto jobs = sim_jobs(static_cast<int>(state.range(0)), 3);
  const Cluster cluster = Cluster::google_like(100);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 3;
  long long copies = 0;
  SimStats stats{};
  for (auto _ : state) {
    DollyMPScheduler scheduler;
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    copies = result.total_copies_launched;
    stats = result.stats;
    benchmark::DoNotOptimize(result.total_flowtime());
  }
  state.counters["copies"] = static_cast<double>(copies);
  state.counters["copies/s"] = benchmark::Counter(
      static_cast<double>(copies) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  // Pool traffic per simulated slot: fresh copy-slab extents (acquires that
  // missed the free lists) — the run's steady-state allocation rate.
  state.counters["alloc_per_step"] =
      static_cast<double>(stats.copy_slab_acquires - stats.copy_slab_reuses) /
      static_cast<double>(std::max(1LL, stats.slots_visited));
}
BENCHMARK(BM_SimulatorStochastic)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

// Same end-to-end run at a 1,000-server inventory, where placement
// queries and index maintenance start to show.
void BM_SimulatorStochasticLargeCluster(benchmark::State& state) {
  const auto jobs = sim_jobs(static_cast<int>(state.range(0)), 9);
  const Cluster cluster = Cluster::google_like(1000);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 9;
  for (auto _ : state) {
    DollyMPScheduler scheduler;
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    benchmark::DoNotOptimize(result.total_flowtime());
  }
}
BENCHMARK(BM_SimulatorStochasticLargeCluster)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_SimulatorWorkBased(benchmark::State& state) {
  const auto jobs = sim_jobs(static_cast<int>(state.range(0)), 5);
  const Cluster cluster = Cluster::google_like(100);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 5;
  config.model = ExecutionModel::kWorkBased;
  for (auto _ : state) {
    DollyMPScheduler scheduler;
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    benchmark::DoNotOptimize(result.total_flowtime());
  }
}
BENCHMARK(BM_SimulatorWorkBased)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_SimulatorWithFailures(benchmark::State& state) {
  const auto jobs = sim_jobs(200, 7);
  const Cluster cluster = Cluster::google_like(100);
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 7;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 600.0;
  config.failures.mean_repair_seconds = 120.0;
  for (auto _ : state) {
    DollyMPScheduler scheduler;
    const SimResult result = simulate(cluster, config, jobs, scheduler);
    benchmark::DoNotOptimize(result.total_flowtime());
  }
}
BENCHMARK(BM_SimulatorWithFailures)->Unit(benchmark::kMillisecond);

}  // namespace
