// Differential/invariant harness for gang scheduling (PhaseSpec::gang).
//
// A gang phase models a synchronous data-parallel training step: a partial
// world cannot make progress through an all-reduce, so placement is
// all-or-nothing — one probe wave either commits every pending task
// atomically or rolls back every tentative allocation.  The suites below
// lock that down from the outside:
//
//   * the flight-recorder stream shows no partial gang: in a healthy run
//     every gang phase's first copies land in the SAME slot, as one wave;
//   * rollbacks leak nothing — contended runs with observed kGangRollback
//     records still drain with zero leaked CPU/GPU/memory and exact
//     wave-size accounting;
//   * completion conservation holds across the fault matrix (crash, rack,
//     fail-slow): every job finishes and nothing stays allocated;
//   * a pinned golden hash freezes the gpu scenario's decision stream, the
//     gang counterpart of the 36-entry layout golden matrix (regenerate
//     with this test's failure output if an intentional change lands, and
//     say so in the commit);
//   * a gang that could never fit even on an empty cluster is rejected up
//     front (validate_placeable), not deadlocked on.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/experiment.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

constexpr int kWorld = 8;
constexpr int kSteps = 3;

MlTrainConfig train_config() {
  MlTrainConfig config;
  config.world_size = kWorld;
  config.steps = kSteps;
  return config;
}

/// Analytics stream + gang trainers on the gpu-pod inventory.  Trainer job
/// ids start at `analytics` so tests can tell the populations apart.
std::vector<JobSpec> gpu_workload(int analytics, int trainers, std::uint64_t seed) {
  TraceModel model({}, seed);
  std::vector<JobSpec> jobs = model.sample_jobs(analytics);
  assign_poisson_arrivals(jobs, 15.0, seed + 1);
  for (int k = 0; k < trainers; ++k) {
    jobs.push_back(make_mltrain(analytics + k, 10.0 * k, train_config()));
  }
  return jobs;
}

SimConfig gpu_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  return config;
}

struct RunOutput {
  SimResult result;
  std::vector<TraceRecord> records;
  std::uint64_t hash = 0;
};

RunOutput run_recorded(const Cluster& cluster, SimConfig config,
                       const std::vector<JobSpec>& jobs, Scheduler& scheduler) {
  Recorder rec;
  config.recorder = &rec;
  RunOutput out;
  out.result = simulate(cluster, config, jobs, scheduler);
  out.records = rec.snapshot();
  out.hash = rec.hash();
  return out;
}

void expect_all_jobs_complete(const SimResult& result, std::size_t expected) {
  ASSERT_EQ(result.jobs.size(), expected);
  for (const JobRecord& job : result.jobs) {
    EXPECT_GE(job.finish_seconds, job.arrival_seconds)
        << "job " << job.id << " never finished";
  }
}

void expect_no_leaks(const SimStats& stats) {
  EXPECT_EQ(stats.leaked_cpu, 0.0);
  EXPECT_EQ(stats.leaked_mem, 0.0);
  EXPECT_EQ(stats.leaked_active_copies, 0);
}

/// For every gang phase of the trainer jobs, its first-copy placements in
/// the stream must form complete single-slot waves: `world` distinct tasks,
/// all placed at one slot per wave.  `healthy` additionally pins exactly
/// one wave per phase.
void expect_atomic_waves(const std::vector<TraceRecord>& records, int first_trainer,
                         int trainers, bool healthy) {
  // (job, phase) -> slot -> tasks placed at that slot.
  std::map<std::pair<JobId, PhaseIndex>, std::map<SimTime, std::set<std::int32_t>>> waves;
  for (const TraceRecord& r : records) {
    if (r.type != TraceEv::kCopyPlaced) continue;
    if (r.job < first_trainer || r.job >= first_trainer + trainers) continue;
    if (r.phase == 0) continue;  // the CPU-only setup phase is not a gang
    waves[{r.job, r.phase}][r.slot].insert(r.task);
  }
  ASSERT_EQ(waves.size(), static_cast<std::size_t>(trainers) * kSteps)
      << "every gang phase must be placed at least once";
  for (const auto& [key, by_slot] : waves) {
    if (healthy) {
      ASSERT_EQ(by_slot.size(), 1u)
          << "job " << key.first << " phase " << key.second
          << ": a healthy gang phase is placed in exactly one wave";
    }
    std::set<std::int32_t> all_tasks;
    for (const auto& [slot, tasks] : by_slot) {
      // No partial gang: in a healthy run each wave is disjoint from the
      // previous ones and covers the full world at once.  Under faults a
      // killed task legitimately reappears in a later re-execution wave.
      for (std::int32_t t : tasks) {
        const bool fresh = all_tasks.insert(t).second;
        if (healthy) {
          EXPECT_TRUE(fresh) << "task replaced without a fault";
        }
      }
      EXPECT_LE(tasks.size(), static_cast<std::size_t>(kWorld));
      if (healthy) {
        EXPECT_EQ(tasks.size(), static_cast<std::size_t>(kWorld))
            << "job " << key.first << " phase " << key.second << " slot " << slot
            << ": partial gang in the trace stream";
      }
    }
    EXPECT_EQ(all_tasks.size(), static_cast<std::size_t>(kWorld))
        << "job " << key.first << " phase " << key.second;
  }
}

TEST(GangPlacement, AllOrNothingInTraceStream) {
  const Cluster cluster = Cluster::gpu_pods(32);
  const auto jobs = gpu_workload(10, 3, 42);
  for (const char* policy : {"dollymp2", "capacity", "drf"}) {
    std::unique_ptr<Scheduler> sched;
    if (std::string(policy) == "capacity") sched = std::make_unique<CapacityScheduler>();
    else if (std::string(policy) == "drf") sched = std::make_unique<DrfScheduler>();
    else sched = std::make_unique<DollyMPScheduler>(DollyMPConfig{});
    const RunOutput run = run_recorded(cluster, gpu_config(7), jobs, *sched);
    SCOPED_TRACE(policy);
    expect_all_jobs_complete(run.result, jobs.size());
    expect_no_leaks(run.result.stats);
    expect_atomic_waves(run.records, 10, 3, /*healthy=*/true);
    // Wave accounting: healthy runs commit full worlds only.
    EXPECT_EQ(run.result.stats.gangs_placed,
              static_cast<long long>(3) * kSteps);
    EXPECT_EQ(run.result.stats.gang_tasks_placed,
              run.result.stats.gangs_placed * kWorld);
  }
}

TEST(GangPlacement, RollbackReleasesEveryTentativeAllocation) {
  // Two 8-GPU nodes and six trainers racing for them: probe waves must
  // fail and roll back, and the run must still drain leak-free with exact
  // accounting.  Cloning (dollymp2) keeps partial-GPU states in play so
  // rollbacks happen mid-probe, exercising the reverse-release path.
  const Cluster cluster = Cluster::gpu_pods(8);
  std::vector<JobSpec> jobs;
  for (int k = 0; k < 6; ++k) {
    jobs.push_back(make_mltrain(k, 0.0, train_config()));
  }
  DollyMPScheduler sched{DollyMPConfig{}};
  const RunOutput run = run_recorded(cluster, gpu_config(3), jobs, sched);

  EXPECT_GT(run.result.stats.gang_rollbacks, 0) << "scenario must contend";
  long long rollback_records = 0;
  for (const TraceRecord& r : run.records) {
    if (r.type == TraceEv::kGangRollback) ++rollback_records;
  }
  EXPECT_EQ(rollback_records, run.result.stats.gang_rollbacks);

  expect_all_jobs_complete(run.result, jobs.size());
  expect_no_leaks(run.result.stats);
  expect_atomic_waves(run.records, 0, 6, /*healthy=*/true);
  EXPECT_EQ(run.result.stats.gang_tasks_placed,
            run.result.stats.gangs_placed * kWorld);
}

TEST(GangPlacement, CompletionConservationUnderFaultMatrix) {
  const Cluster cluster = Cluster::gpu_pods(32);
  const auto jobs = gpu_workload(6, 2, 13);
  for (const char* preset : {"crash", "rack", "failslow"}) {
    const SweepFaultPreset faults = make_fault_preset(preset);
    SimConfig config = gpu_config(11);
    config.failures = faults.failures;
    config.faults = faults.faults;
    DollyMPScheduler sched{DollyMPConfig{}};
    const RunOutput run = run_recorded(cluster, config, jobs, sched);
    SCOPED_TRACE(preset);
    expect_all_jobs_complete(run.result, jobs.size());
    expect_no_leaks(run.result.stats);
    // Faults may force re-execution waves (smaller than the world), but
    // never a wave that exceeds it, and at least one full wave per phase
    // happened.
    EXPECT_GE(run.result.stats.gangs_placed, static_cast<long long>(2) * kSteps);
    EXPECT_LE(run.result.stats.gang_tasks_placed,
              run.result.stats.gangs_placed * kWorld);
    expect_atomic_waves(run.records, 6, 2, /*healthy=*/false);
  }
}

// Golden stream hash for the gpu scenario — the gang counterpart of the
// 36-entry matrix in test_layout_equivalence.cpp.  Generated by this exact
// configuration; if an INTENTIONAL scheduling change lands, rerun the test,
// take the new value from the failure message, and say so in the commit.
constexpr std::uint64_t kGpuGoldenHash = 0x9ec92696d9f1919bULL;
constexpr std::uint64_t kGpuGoldenRecords = 3003ULL;

TEST(GangDeterminism, GpuScenarioGoldenPinned) {
  const Cluster cluster = Cluster::gpu_pods(32);
  const auto jobs = gpu_workload(10, 3, 42);
  DollyMPScheduler sched{DollyMPConfig{}};
  const RunOutput run = run_recorded(cluster, gpu_config(7), jobs, sched);
  EXPECT_EQ(run.hash, kGpuGoldenHash)
      << "gpu scenario stream hash changed: 0x" << std::hex << run.hash;
  EXPECT_EQ(run.records.size(), kGpuGoldenRecords)
      << "gpu scenario record count changed: " << std::dec << run.records.size();
}

TEST(GangValidation, ImpossibleGangRejectedUpFront) {
  // 8 ranks wanting a GPU each on a GPU-less inventory: the collective-fit
  // check must reject the workload before the run, not stall forever.
  const Cluster cluster = Cluster::uniform(16, {16.0, 64.0});
  std::vector<JobSpec> jobs = {make_mltrain(0, 0.0, train_config())};
  DollyMPScheduler sched{DollyMPConfig{}};
  SimConfig config = gpu_config(1);
  EXPECT_THROW((void)simulate(cluster, config, jobs, sched), std::invalid_argument);
}

TEST(GangValidation, SpreadPenaltySlowsSplitGangs) {
  // Same trainer, two inventories: one where the whole gang fits a single
  // 8-GPU node (penalty 1.0) and one of single-GPU machines where every
  // wave must span servers and racks.  With gang_spread_penalty > 0 the
  // split run's trainer takes strictly longer.
  std::vector<JobSpec> jobs = {make_mltrain(0, 0.0, train_config())};

  SimConfig config = gpu_config(5);
  config.gang_spread_penalty = 0.3;

  const Cluster pod = Cluster::gpu_pods(8);
  DollyMPScheduler sched_pod{DollyMPConfig{}};
  const SimResult on_pod = simulate(pod, config, jobs, sched_pod);

  Cluster scattered;
  for (int i = 0; i < 16; ++i) {
    scattered.add_server(ServerSpec{{8.0, 32.0, 1.0}, 1.2, i / 2, "gpu-1x"});
  }
  DollyMPScheduler sched_scattered{DollyMPConfig{}};
  const SimResult split = simulate(scattered, config, jobs, sched_scattered);

  EXPECT_EQ(on_pod.stats.gangs_split_across_racks, 0);
  EXPECT_GT(split.stats.gangs_split_across_racks, 0);
  EXPECT_GT(split.job(0).finish_seconds, on_pod.job(0).finish_seconds);
}

}  // namespace
}  // namespace dollymp
