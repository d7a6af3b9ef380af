// GPU gang-scheduling acceptance bench: the mixed ML/analytics scenario
// (Cluster::gpu_pods + make_mltrain gang phases over the trace-model
// analytics stream) must place gangs atomically at a useful rate.
//
// Emitted as BENCH_gpu_gang.json (micro_main):
//
//   * BM_GangPlacementThroughput — end-to-end simulation rate of the gpu
//     scenario under DollyMP, with gang waves/rollbacks surfaced as
//     counters (the probe/rollback protocol sits on the placement path, so
//     its cost shows up directly here).
//   * BM_GpuGangGate — the gate.  Runs the scenario under DollyMP and the
//     capacity baseline, then fails (SkipWithError, exit 1 via micro_main)
//     unless: (a) completion — every job in the mix finishes; (b)
//     atomicity accounting — on a healthy run every committed wave carries
//     the full world size, so gang_tasks_placed == gangs_placed *
//     world_size; (c) conservation — no leaked allocations or active
//     copies at run end; (d) throughput — gang task placements per wall
//     second stay above a floor loose enough for sanitizer builds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dollymp/cluster/cluster.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

constexpr int kTrainJobs = 16;
constexpr int kAnalyticsJobs = 48;
constexpr int kServers = 64;

/// The gpu scenario workload: an analytics stream contending with
/// gang-scheduled trainers (world size 8, 4 chained steps each).
std::vector<JobSpec> gpu_mix(std::uint64_t seed) {
  TraceModel model({}, seed);
  std::vector<JobSpec> jobs = model.sample_jobs(kAnalyticsJobs);
  assign_poisson_arrivals(jobs, 20.0, seed + 1);
  append_mltrain_mix(jobs, kTrainJobs, 20.0, seed + 2);
  return jobs;
}

void BM_GangPlacementThroughput(benchmark::State& state) {
  const Cluster cluster = Cluster::gpu_pods(kServers);
  const std::vector<JobSpec> jobs = gpu_mix(11);
  long long gangs = 0;
  long long gang_tasks = 0;
  long long rollbacks = 0;
  for (auto _ : state) {
    const SimResult result = run_workload(cluster, deployment_config(11), jobs, "dollymp2");
    benchmark::DoNotOptimize(result.makespan_seconds);
    gangs += result.stats.gangs_placed;
    gang_tasks += result.stats.gang_tasks_placed;
    rollbacks += result.stats.gang_rollbacks;
  }
  state.counters["gangs/iter"] =
      static_cast<double>(gangs) / static_cast<double>(state.iterations());
  state.counters["rollbacks/iter"] =
      static_cast<double>(rollbacks) / static_cast<double>(state.iterations());
  state.counters["gang_tasks/s"] =
      benchmark::Counter(static_cast<double>(gang_tasks), benchmark::Counter::kIsRate);
}

void BM_GpuGangGate(benchmark::State& state) {
  const Cluster cluster = Cluster::gpu_pods(kServers);
  const std::vector<JobSpec> jobs = gpu_mix(11);
  const MlTrainConfig train;  // defaults drive make_mltrain above
  for (auto _ : state) {
    for (const char* key : {"dollymp2", "capacity"}) {
      const SimResult result = run_workload(cluster, deployment_config(11), jobs, key);
      const SimStats& stats = result.stats;
      const std::string tag = std::string(" [") + key + "]";

      // (a) Completion: the scenario must drain — every job in the mix,
      // trainers included, finishes after it arrives.
      state.counters["jobs_" + std::string(key)] =
          static_cast<double>(result.jobs.size());
      if (result.jobs.size() != jobs.size()) {
        state.SkipWithError(("gpu gang gate: jobs lost" + tag).c_str());
        return;
      }
      for (const JobRecord& job : result.jobs) {
        if (job.finish_seconds < job.arrival_seconds) {
          state.SkipWithError(("gpu gang gate: unfinished job" + tag).c_str());
          return;
        }
      }

      // (b) Atomicity accounting: healthy run, so phases only ever expose
      // their full world to a wave — any committed wave smaller than the
      // world size means a partial gang slipped through.
      state.counters["gangs_" + std::string(key)] =
          static_cast<double>(stats.gangs_placed);
      state.counters["splits_" + std::string(key)] =
          static_cast<double>(stats.gangs_split_across_racks);
      const long long expected_waves =
          static_cast<long long>(kTrainJobs) * train.steps;
      if (stats.gangs_placed != expected_waves) {
        state.SkipWithError(("gpu gang gate: wave count off" + tag).c_str());
        return;
      }
      if (stats.gang_tasks_placed != stats.gangs_placed * train.world_size) {
        state.SkipWithError(("gpu gang gate: partial gang committed" + tag).c_str());
        return;
      }

      // (c) Conservation: probe/rollback must not leak — nothing still
      // allocated or active once the run drains.
      if (stats.leaked_cpu != 0.0 || stats.leaked_mem != 0.0 ||
          stats.leaked_active_copies != 0) {
        state.SkipWithError(("gpu gang gate: allocation leak" + tag).c_str());
        return;
      }

      // (d) Throughput floor: gang task placements per wall second.  The
      // floor is deliberately loose — it catches an accidentally quadratic
      // probe loop, not build-flavor noise (CI runs this under ASan/UBSan).
      const double rate = static_cast<double>(stats.gang_tasks_placed) /
                          std::max(1.0e-9, stats.wall_clock_seconds);
      state.counters["gang_tasks_per_s_" + std::string(key)] = rate;
      if (rate < 25.0) {
        state.SkipWithError(("gpu gang gate: placement throughput floor" + tag).c_str());
        return;
      }
    }
  }
}

}  // namespace

BENCHMARK(BM_GangPlacementThroughput)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpuGangGate)->Unit(benchmark::kMillisecond)->Iterations(1);
