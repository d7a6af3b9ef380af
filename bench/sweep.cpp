// Replication throughput of the experiment sweep driver
// (common/experiment.h): whole-run parallelism, the only place this project
// uses more than one core.  Emitted as BENCH_sweep.json.
//
// BM_SweepReplications/T runs a small but representative grid — 3 policies
// × {healthy, crash} × 3 seeds = 18 replications of a 60-job paper30
// workload — through run_sweep() with a T-worker pool.  items_per_second IS
// replications/sec (SetItemsProcessed counts replications), the figure
// EXPERIMENTS.md tracks.  Thread counts above the
// host's hardware concurrency are skipped at registration; threads=1 always
// runs as the serial baseline.  Wall-clock (real_time) and process CPU time
// (cpu_time) are both recorded, with the detected core count in `cores`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "dollymp/common/experiment.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/sched/policies.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;

namespace {

SweepSpec make_spec() {
  SweepSpec spec;
  spec.cluster = Cluster::paper30();
  spec.base.slot_seconds = 5.0;
  spec.base.seed = 7;
  spec.base.background.enabled = false;

  TraceModel model({}, 7);
  spec.jobs = model.sample_jobs(60);
  assign_poisson_arrivals(spec.jobs, 15.0, 7);

  for (const char* name : {"dollymp2", "capacity", "tetris"}) {
    spec.policies.push_back({name, named_policy_factory(name)});
  }
  spec.fault_presets.push_back(make_fault_preset("healthy"));
  spec.fault_presets.push_back(make_fault_preset("crash"));
  spec.seeds = {7, 8, 9};
  return spec;
}

unsigned detected_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void BM_SweepReplications(benchmark::State& state, int threads) {
  const SweepSpec spec = make_spec();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));
  std::size_t replications = 0;
  for (auto _ : state) {
    const SweepResult result = run_sweep(spec, pool.get());
    benchmark::DoNotOptimize(result.cells.data());
    replications = result.replications;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replications) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["cores"] = static_cast<double>(detected_cores());
  state.counters["workers"] = static_cast<double>(pool ? pool->size() : 1);
  state.counters["replications"] = static_cast<double>(replications);
}

bool register_series() {
  const auto cores = static_cast<int>(detected_cores());
  for (const int threads : {1, 2, 4, 8}) {
    if (threads > 1 && threads > cores) continue;  // graceful skip
    benchmark::RegisterBenchmark(
        ("BM_SweepReplications/" + std::to_string(threads)).c_str(),
        [threads](benchmark::State& s) { BM_SweepReplications(s, threads); })
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
  }
  return true;
}

[[maybe_unused]] const bool kRegistered = register_series();

}  // namespace
