// Shared construction code for the pinned placement-equivalence runs.
//
// Every placement query is answered by PlacementIndex.  These runs pin its
// decisions to the linear scan's: the table at the bottom holds each run's
// flight-recorder stream hash and record count as the linear-scan path
// produced them (tools/golden_gen.cpp prints the table; see there for how
// it was generated).  The cases cover every policy, DollyMP's configuration
// knobs, the straggler-aware weighted pick, the locality model, crash
// failures and resilience quarantine churn.  The generator and the tests
// (test_placement_equivalence, test_replay, test_resilience) include this
// header, so both sides construct the same runs.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp::placement_golden {

struct Case {
  std::string label;
  Cluster cluster;
  SimConfig config;
  std::vector<JobSpec> jobs;
  SchedulerFactory factory;
  /// False for policies that score servers themselves (Tetris) and never
  /// ask the index.
  bool queries_index = true;
};

inline SimConfig base_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

inline std::vector<JobSpec> straggler_workload(std::uint64_t seed, int count = 8) {
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 1}, 20.0, 30.0));
  }
  assign_poisson_arrivals(jobs, 15.0, seed + 100);
  return jobs;
}

inline std::vector<JobSpec> trace_workload(int count, std::uint64_t seed) {
  TraceModelConfig model_config;
  model_config.max_tasks_per_phase = 40;
  TraceModel model(model_config, seed);
  auto jobs = model.sample_jobs(count);
  assign_poisson_arrivals(jobs, 8.0, seed + 1);
  return jobs;
}

inline SchedulerFactory dollymp(DollyMPConfig config) {
  return [config] { return std::make_unique<DollyMPScheduler>(config); };
}

inline SimConfig with_crashes(SimConfig config) {
  config.slot_seconds = 5.0;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 300.0;
  config.failures.mean_repair_seconds = 60.0;
  return config;
}

/// The whole-run equivalence cases, one per PlacementEquivalence test.
inline void add_equivalence_cases(std::vector<Case>& out) {
  const auto add = [&out](const char* name, Cluster cluster, SimConfig config,
                          std::vector<JobSpec> jobs, SchedulerFactory factory,
                          bool queries_index = true) {
    out.push_back({std::string("equivalence/") + name, std::move(cluster), config,
                   std::move(jobs), std::move(factory), queries_index});
  };
  add("DollyMPDefault", Cluster::paper30(), base_config(11), straggler_workload(11),
      dollymp({}));
  {
    DollyMPConfig config;
    config.clone_budget = 0;
    add("DollyMPNoClones", Cluster::paper30(), base_config(12), straggler_workload(12),
        dollymp(config));
  }
  {
    DollyMPConfig config;
    config.straggler_aware = true;
    add("DollyMPStragglerAware", Cluster::paper30(), base_config(13),
        straggler_workload(13), dollymp(config));
    SimConfig sim = base_config(21);
    sim.slot_seconds = 5.0;
    add("DollyMPStragglerAwareTraceWorkload", Cluster::google_like(60), sim,
        trace_workload(24, 21), dollymp(config));
  }
  {
    DollyMPConfig config;
    config.corollary_clone_counts = true;
    config.recompute_on_completion = true;
    add("DollyMPCorollaryCloneCounts", Cluster::paper30(), base_config(14),
        straggler_workload(14, 12), dollymp(config));
  }
  {
    DollyMPConfig config;
    config.smallest_first_clones = false;
    add("DollyMPLargestFirstClones", Cluster::paper30(), base_config(16),
        straggler_workload(16), dollymp(config));
  }
  {
    // Heavy enough that replicas saturate and placement falls through to
    // best fit (a light load is absorbed entirely by the replica pass).
    SimConfig sim = base_config(17);
    sim.locality.enabled = true;
    sim.slot_seconds = 5.0;
    add("DollyMPWithLocalityModel", Cluster::google_like(60), sim, trace_workload(80, 17),
        dollymp({}));
  }
  add("Capacity", Cluster::paper30(), base_config(31), straggler_workload(31),
      [] { return std::make_unique<CapacityScheduler>(); });
  add("Drf", Cluster::paper30(), base_config(32), straggler_workload(32),
      [] { return std::make_unique<DrfScheduler>(); });
  add("Tetris", Cluster::paper30(), base_config(33), straggler_workload(33),
      [] { return std::make_unique<TetrisScheduler>(); }, /*queries_index=*/false);
  add("Hopper", Cluster::paper30(), base_config(34), straggler_workload(34),
      [] { return std::make_unique<HopperScheduler>(); });
  add("Carbyne", Cluster::paper30(), base_config(35), straggler_workload(35),
      [] { return std::make_unique<CarbyneScheduler>(); });
  {
    SimplePriorityConfig config;
    config.clone_budget = 2;
    add("SrptWithClones", Cluster::paper30(), base_config(36), straggler_workload(36),
        [config] { return std::make_unique<SimplePriorityScheduler>(config); });
  }
  add("DollyMPWithFailures", Cluster::google_like(40), with_crashes(base_config(41)),
      trace_workload(20, 41), dollymp({}));
  add("CapacityWithFailures", Cluster::google_like(40), with_crashes(base_config(42)),
      trace_workload(20, 42), [] { return std::make_unique<CapacityScheduler>(); });
}

/// Replay's case: default DollyMP on paper30 with background load and the
/// locality model at their SimConfig defaults.  At this load the replica
/// pass places every copy, so the index maintains state but is never asked.
inline void add_replay_case(std::vector<Case>& out) {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 7;
  out.push_back({"replay/DollyMPSeed7", Cluster::paper30(), config, straggler_workload(4),
                 dollymp({}), /*queries_index=*/false});
}

/// Resilience fuzz: random workload shape, crash and copy faults and an
/// aggressive quarantine policy, so candidacy churns on every quarantine
/// enter and exit.  Draw order from `fuzz` is part of each case's identity.
inline void add_resilience_cases(std::vector<Case>& out) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng fuzz(seed * 7919 + 13);
    const int job_count = 8 + static_cast<int>(fuzz.below(10));
    const double gap = 5.0 + static_cast<double>(fuzz.below(12));

    TraceModelConfig model_config;
    model_config.max_tasks_per_phase = 20 + static_cast<int>(fuzz.below(20));
    TraceModel model(model_config, seed);
    auto jobs = model.sample_jobs(job_count);
    assign_poisson_arrivals(jobs, gap, seed + 1);

    SimConfig config = base_config(seed);
    config.slot_seconds = 5.0;
    config.failures.enabled = true;
    config.failures.mean_time_to_failure_seconds =
        400.0 + static_cast<double>(fuzz.below(400));
    config.failures.mean_repair_seconds = 60.0 + static_cast<double>(fuzz.below(60));
    config.faults.copy.enabled = true;
    config.faults.copy.inter_fault.mean_seconds =
        30.0 + static_cast<double>(fuzz.below(60));

    DollyMPConfig sched_config;
    sched_config.resilience.enabled = true;
    sched_config.resilience.flap_threshold = 2.0;
    sched_config.resilience.quarantine_slots = 30 + static_cast<SimTime>(fuzz.below(60));
    sched_config.resilience.max_quarantined_fraction = 0.3;

    Cluster cluster = Cluster::google_like(20 + fuzz.below(30));
    out.push_back({"resilience/seed" + std::to_string(seed), std::move(cluster), config,
                   std::move(jobs), dollymp(sched_config), true});
  }
}

/// Every pinned case, in the table's order.
inline std::vector<Case> all_cases() {
  std::vector<Case> out;
  add_equivalence_cases(out);
  add_replay_case(out);
  add_resilience_cases(out);
  return out;
}

inline Case find_case(const std::string& label) {
  for (Case& c : all_cases()) {
    if (c.label == label) return std::move(c);
  }
  throw std::invalid_argument("placement_golden: no case '" + label + "'");
}

struct Pinned {
  const char* label;
  std::uint64_t hash;
  std::uint64_t records;
};

// The linear scan's stream for every case of all_cases(), same order.
constexpr Pinned kPinned[] = {
    {"equivalence/DollyMPDefault", 0xf6c4f2acb946d356ULL, 717ULL},
    {"equivalence/DollyMPNoClones", 0xadf736b4a453dc29ULL, 328ULL},
    {"equivalence/DollyMPStragglerAware", 0xc6ff2d5542c9faf2ULL, 704ULL},
    {"equivalence/DollyMPStragglerAwareTraceWorkload", 0x263a332a21f3f2b4ULL, 2172ULL},
    {"equivalence/DollyMPCorollaryCloneCounts", 0x0d2d84a73c60e9c8ULL, 1072ULL},
    {"equivalence/DollyMPLargestFirstClones", 0x69d6d6ac4edb53dbULL, 704ULL},
    {"equivalence/DollyMPWithLocalityModel", 0x3e0892489a262b8fULL, 8582ULL},
    {"equivalence/Capacity", 0x5df9c81428d4462cULL, 339ULL},
    {"equivalence/Drf", 0xd567ab0dac9a4cd3ULL, 322ULL},
    {"equivalence/Tetris", 0x6e5f65436872011aULL, 261ULL},
    {"equivalence/Hopper", 0xb02925ffae5fde81ULL, 324ULL},
    {"equivalence/Carbyne", 0x9d7054798baa25afULL, 322ULL},
    {"equivalence/SrptWithClones", 0x1607627b89a2d7b4ULL, 711ULL},
    {"equivalence/DollyMPWithFailures", 0x064e5a510605c029ULL, 3085ULL},
    {"equivalence/CapacityWithFailures", 0x3b8a649eaf5a7a7bULL, 2460ULL},
    {"replay/DollyMPSeed7", 0x31ad712fb5176dc9ULL, 729ULL},
    {"resilience/seed0", 0x8925ff5cc9bbf267ULL, 1812ULL},
    {"resilience/seed1", 0xeed47566cbb9b82eULL, 2857ULL},
    {"resilience/seed2", 0x0acfb348a1355c89ULL, 2758ULL},
    {"resilience/seed3", 0x0d5a32e4df31c21bULL, 1267ULL},
    {"resilience/seed4", 0xac631757c8f05a21ULL, 2600ULL},
    {"resilience/seed5", 0x3d2b39ce6d9a5416ULL, 1550ULL},
};

inline const Pinned& pinned(const std::string& label) {
  for (const Pinned& p : kPinned) {
    if (label == p.label) return p;
  }
  throw std::invalid_argument("placement_golden: nothing pinned for '" + label + "'");
}

}  // namespace dollymp::placement_golden
