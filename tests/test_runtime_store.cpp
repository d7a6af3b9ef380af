// Differential fuzz for the struct-of-arrays storage layer.
//
// Three layers, each fuzzed against an independent reference model:
//
//   1. CopySlab/CopyList vs std::vector<CopyRuntime> — random interleaved
//      push_back / clear / release_storage / reserve across many lists
//      sharing one slab, with content equality checked after every
//      operation.  Also proves the recycling contract: a warm slab serves
//      steady-state churn from its free lists without new blocks.
//   2. ServerTable-backed Server views vs a plain struct mirror — random
//      allocate / release / copy-counter / flag traffic.
//   3. The full simulator across random scenarios, checkpointed at the
//      median arrival and restored into a fresh core and policy — the
//      restored run's recorder stream and SimStats must match the
//      uninterrupted run's field by field.
#include "dollymp/sim/runtime_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/common/state_io.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sim/copy_slab.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"
#include "layout_golden_matrix.h"

namespace dollymp {
namespace {

// ---------------------------------------------------------------------------
// 1. CopySlab / CopyList vs std::vector mirror
// ---------------------------------------------------------------------------

CopyRuntime make_copy(Rng& rng) {
  CopyRuntime copy;
  copy.server = static_cast<ServerId>(rng.below(1000));
  copy.start = static_cast<SimTime>(rng.below(10000));
  copy.finish = static_cast<SimTime>(rng.below(20000));
  copy.locality = rng.chance(0.5) ? LocalityLevel::kNode : LocalityLevel::kRack;
  copy.active = rng.chance(0.5);
  copy.killed = rng.chance(0.2);
  copy.base_seconds = rng.uniform(1.0, 100.0);
  return copy;
}

void expect_lists_equal(const CopyList& list, const std::vector<CopyRuntime>& mirror,
                        const std::string& label) {
  ASSERT_EQ(list.size(), mirror.size()) << label;
  for (std::size_t i = 0; i < mirror.size(); ++i) {
    EXPECT_EQ(list[i].server, mirror[i].server) << label << " [" << i << "]";
    EXPECT_EQ(list[i].start, mirror[i].start) << label << " [" << i << "]";
    EXPECT_EQ(list[i].finish, mirror[i].finish) << label << " [" << i << "]";
    EXPECT_EQ(list[i].locality, mirror[i].locality) << label << " [" << i << "]";
    EXPECT_EQ(list[i].active, mirror[i].active) << label << " [" << i << "]";
    EXPECT_EQ(list[i].killed, mirror[i].killed) << label << " [" << i << "]";
    EXPECT_EQ(list[i].base_seconds, mirror[i].base_seconds) << label << " [" << i << "]";
  }
}

TEST(CopySlabFuzz, ListsMatchVectorMirror) {
  CopySlab slab;
  constexpr int kLists = 64;
  std::vector<CopyList> lists(kLists);
  std::vector<std::vector<CopyRuntime>> mirrors(kLists);
  for (auto& list : lists) list.bind(&slab);

  Rng rng(0x51ab);
  for (int op = 0; op < 20000; ++op) {
    const std::size_t i = rng.below(kLists);
    const std::string label = "op " + std::to_string(op);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.70) {
      const CopyRuntime copy = make_copy(rng);
      lists[i].push_back(copy);
      mirrors[i].push_back(copy);
    } else if (roll < 0.80) {
      lists[i].clear();
      mirrors[i].clear();
    } else if (roll < 0.90) {
      lists[i].release_storage();
      mirrors[i].clear();
    } else {
      const std::size_t n = rng.below(16);
      lists[i].reserve(n);  // mirror unaffected: capacity-only
    }
    expect_lists_equal(lists[i], mirrors[i], label);
    // back() and pointer-difference indexing, the idioms the scheduler
    // leans on across extent growth.
    if (!mirrors[i].empty()) {
      EXPECT_EQ(lists[i].back().base_seconds, mirrors[i].back().base_seconds) << label;
      const CopyRuntime& last = lists[i][lists[i].size() - 1];
      EXPECT_EQ(static_cast<std::size_t>(&last - lists[i].data()), lists[i].size() - 1)
          << label;
    }
  }
  const auto& counters = slab.counters();
  EXPECT_GT(counters.acquires, 0u);
  EXPECT_GT(counters.reuses, 0u);  // release_storage churn must recycle
  EXPECT_GT(slab.memory_bytes(), 0u);
}

TEST(CopySlabFuzz, WarmSlabServesChurnWithoutNewBlocks) {
  CopySlab slab;
  Rng rng(0x3417);
  // Warm-up: a generation of lists at the steady-state copy count.
  constexpr int kGeneration = 32;
  constexpr int kCopies = 6;
  const auto run_generation = [&] {
    std::vector<CopyList> lists(kGeneration);
    for (auto& list : lists) {
      list.bind(&slab);
      for (int c = 0; c < kCopies; ++c) list.push_back(make_copy(rng));
    }
    // Lists destruct here -> extents return to the free lists.
  };
  run_generation();
  const std::uint64_t warm_blocks = slab.counters().block_allocations;
  for (int generation = 0; generation < 50; ++generation) run_generation();
  EXPECT_EQ(slab.counters().block_allocations, warm_blocks)
      << "steady-state churn allocated fresh blocks";
  EXPECT_GT(slab.counters().reuses, 0u);
}

TEST(CopySlabFuzz, OversizedExtentThrows) {
  CopySlab slab;
  EXPECT_THROW((void)slab.acquire(CopySlab::kBlockCopies + 1), std::length_error);
}

// ---------------------------------------------------------------------------
// 2. ServerTable vs per-object mirror
// ---------------------------------------------------------------------------

struct MirrorServer {
  Resources capacity;
  Resources used;
  double base_speed = 1.0;
  double slow_factor = 1.0;
  int rack = 0;
  int running_copies = 0;
  bool down = false;
  bool quarantined = false;

  bool can_fit(const Resources& demand) const {
    return !down && !quarantined && (used + demand).fits_within(capacity);
  }
  bool allocate(const Resources& demand) {
    if (!can_fit(demand)) return false;
    used += demand;
    return true;
  }
  void release(const Resources& demand) { used = (used - demand).clamped(); }
};

TEST(ServerTableFuzz, ViewsMatchStructMirror) {
  Rng rng(0x7ab1e);
  Cluster cluster;
  std::vector<MirrorServer> mirror;
  constexpr int kServers = 40;
  for (int i = 0; i < kServers; ++i) {
    ServerSpec spec;
    spec.capacity = {static_cast<double>(rng.range(4, 32)),
                     static_cast<double>(rng.range(8, 64))};
    spec.base_speed = rng.uniform(0.5, 2.0);
    spec.rack = static_cast<int>(rng.below(4));
    cluster.add_server(spec);
    MirrorServer m;
    m.capacity = spec.capacity;
    m.base_speed = spec.base_speed;
    m.rack = spec.rack;
    mirror.push_back(m);
  }

  for (int op = 0; op < 20000; ++op) {
    const std::size_t i = rng.below(kServers);
    Server& server = cluster.server(i);
    MirrorServer& m = mirror[i];
    const std::string label = "op " + std::to_string(op);
    const double roll = rng.uniform(0.0, 1.0);
    const Resources demand = {static_cast<double>(rng.range(1, 8)),
                              static_cast<double>(rng.range(1, 16))};
    if (roll < 0.40) {
      EXPECT_EQ(server.allocate(demand), m.allocate(demand)) << label;
    } else if (roll < 0.60) {
      // Only release what is actually held (the simulator's contract).
      if (demand.fits_within(m.used)) {
        server.release(demand);
        m.release(demand);
        if (m.running_copies > 0) {
          server.note_copy_finished();
          --m.running_copies;
        }
      }
    } else if (roll < 0.70) {
      server.note_copy_started();
      ++m.running_copies;
    } else if (roll < 0.80) {
      const bool down = rng.chance(0.5);
      server.set_down(down);
      m.down = down;
    } else if (roll < 0.90) {
      const bool q = rng.chance(0.5);
      server.set_quarantined(q);
      m.quarantined = q;
    } else {
      const double f = rng.chance(0.5) ? 1.0 : rng.uniform(1.5, 4.0);
      server.set_slow_factor(f);
      m.slow_factor = f;
    }
    EXPECT_EQ(server.used().cpu(), m.used.cpu()) << label;
    EXPECT_EQ(server.used().mem(), m.used.mem()) << label;
    EXPECT_EQ(server.is_down(), m.down) << label;
    EXPECT_EQ(server.is_quarantined(), m.quarantined) << label;
    EXPECT_EQ(server.slow_factor(), m.slow_factor) << label;
    EXPECT_EQ(server.can_fit(demand), m.can_fit(demand)) << label;
    EXPECT_EQ(server.base_speed(), m.base_speed) << label;
    EXPECT_EQ(server.rack(), m.rack) << label;
  }
}

// ---------------------------------------------------------------------------
// 3. Randomized end-to-end: policies x faults, restored mid-run
// ---------------------------------------------------------------------------

/// Field-by-field SimStats equality, including the layout counters;
/// peak_rss/wall_clock are excluded as host-dependent, and the copy-slab
/// acquire/reuse counters because a restored slab starts cold.
void expect_stats_equal(const SimStats& a, const SimStats& b, const std::string& label) {
#define DMP_EXPECT_FIELD(field) EXPECT_EQ(a.field, b.field) << label << ": " #field
  DMP_EXPECT_FIELD(scheduler_invocations);
  DMP_EXPECT_FIELD(slots_visited);
  DMP_EXPECT_FIELD(slots_fast_forwarded);
  DMP_EXPECT_FIELD(events_copy_finish);
  DMP_EXPECT_FIELD(events_work_finish);
  DMP_EXPECT_FIELD(events_server_failure);
  DMP_EXPECT_FIELD(events_server_repair);
  DMP_EXPECT_FIELD(events_job_arrival);
  DMP_EXPECT_FIELD(placement_attempts);
  DMP_EXPECT_FIELD(placements_accepted);
  DMP_EXPECT_FIELD(recorder_records);
  DMP_EXPECT_FIELD(recorder_hash);
  DMP_EXPECT_FIELD(copies_finished);
  DMP_EXPECT_FIELD(copies_killed);
  DMP_EXPECT_FIELD(leaked_cpu);
  DMP_EXPECT_FIELD(leaked_mem);
  DMP_EXPECT_FIELD(leaked_active_copies);
  DMP_EXPECT_FIELD(copy_slab_blocks);
  DMP_EXPECT_FIELD(runtime_store_bytes);
  DMP_EXPECT_FIELD(server_table_bytes);
  DMP_EXPECT_FIELD(bytes_per_server);
#undef DMP_EXPECT_FIELD
}

TEST(RuntimeStoreFuzz, RandomScenariosRestoreMidRun) {
  Rng rng(0x570FE);
  const auto policies = layout_golden::all_policies();
  const Cluster cluster = Cluster::paper30();
  // 24 trials of this generator draw every one of the nine policies.
  for (int trial = 0; trial < 24; ++trial) {
    const auto& policy = policies[rng.below(policies.size())];
    const bool faults = rng.chance(0.5);
    const std::string label = "trial " + std::to_string(trial) + "/" + policy.name +
                              (faults ? "/faults" : "/healthy");
    SCOPED_TRACE(label);

    TraceModelConfig model_config;
    model_config.max_tasks_per_phase = 16;
    TraceModel model(model_config, rng.below(1u << 20));
    auto jobs = model.sample_jobs(static_cast<int>(rng.range(5, 10)));
    assign_poisson_arrivals(jobs, rng.uniform(8.0, 20.0), rng.below(1u << 20));

    SimConfig config = layout_golden::matrix_config(faults);
    config.seed = rng.below(1u << 20) + 1;

    std::vector<double> arrivals;
    for (const JobSpec& j : jobs) arrivals.push_back(j.arrival_seconds);
    const auto mid = arrivals.begin() + static_cast<std::ptrdiff_t>(arrivals.size() / 2);
    std::nth_element(arrivals.begin(), mid, arrivals.end());
    const auto mid_slot = static_cast<SimTime>(*mid / config.slot_seconds);

    // Uninterrupted run, checkpointed at the median arrival on the way.
    Recorder original_rec;
    config.recorder = &original_rec;
    SimCore original(cluster, config);
    original.ingest(jobs);
    const auto original_policy = policy.factory();
    original.begin(*original_policy);
    ASSERT_EQ(original.step_until(mid_slot), StepOutcome::kHorizonReached);
    StateWriter writer;
    original.save_state(writer);
    const std::vector<std::uint8_t> snapshot = writer.finish();
    (void)original.step_until(SimCore::kUnbounded);
    const SimResult uninterrupted = original.finish();

    // Fresh core and fresh policy, restored from the checkpoint.
    Recorder restored_rec;
    config.recorder = &restored_rec;
    SimCore restored(cluster, config);
    const auto restored_policy = policy.factory();
    restored.begin(*restored_policy);
    StateReader reader(snapshot);
    restored.load_state(reader, /*load_scheduler=*/true);
    (void)restored.step_until(SimCore::kUnbounded);
    const SimResult resumed = restored.finish();

    EXPECT_EQ(restored_rec.hash(), original_rec.hash()) << label;
    EXPECT_EQ(restored_rec.records_written(), original_rec.records_written()) << label;
    EXPECT_EQ(resumed.makespan_seconds, uninterrupted.makespan_seconds) << label;
    expect_stats_equal(uninterrupted.stats, resumed.stats, label);
  }
}

// ---------------------------------------------------------------------------
// RuntimeStore lifecycle
// ---------------------------------------------------------------------------

TEST(RuntimeStore, MaterializeMatchesSpecShape) {
  Cluster cluster = Cluster::uniform(4, {8, 16});
  const LocalityModel locality({}, cluster);
  Rng rng(9);
  RuntimeStore store;
  std::vector<JobSpec> specs;
  for (int i = 0; i < 20; ++i) {
    specs.push_back(JobSpec::single_phase(i, 4 + i % 5, {1, 2}, 20.0, 10.0));
  }
  store.reserve_for(specs);
  for (const auto& spec : specs) {
    const std::size_t idx = store.materialize(spec, 1.0, locality, rng);
    EXPECT_EQ(idx + 1, store.jobs().size());
  }
  ASSERT_EQ(store.jobs().size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobRuntime& job = store.jobs()[i];
    ASSERT_EQ(job.phases.size(), specs[i].phases.size());
    for (std::size_t p = 0; p < job.phases.size(); ++p) {
      EXPECT_EQ(job.phases[p].tasks.size(),
                static_cast<std::size_t>(specs[i].phases[p].task_count));
      EXPECT_GE(job.phases[p].duration_pool.size(), 16u);
      for (const auto& task : job.phases[p].tasks) {
        EXPECT_EQ(task.copies.slab(), &store.copy_slab());
      }
    }
  }
  EXPECT_GT(store.memory_bytes(), 0u);
  store.clear();
  EXPECT_TRUE(store.jobs().empty());
}

/// Growth past the reserved extent must rebind every view: materialize
/// without reserve_for, forcing relocations mid-stream.
TEST(RuntimeStore, UnreservedGrowthKeepsViewsValid) {
  Cluster cluster = Cluster::uniform(4, {8, 16});
  const LocalityModel locality({}, cluster);
  Rng rng(11);
  RuntimeStore store;
  std::vector<JobSpec> specs;
  specs.reserve(40);  // JobRuntime::spec points into this vector
  for (int i = 0; i < 40; ++i) {
    specs.push_back(JobSpec::single_phase(i, 3 + i % 7, {1, 1}, 15.0, 5.0));
  }
  for (const auto& spec : specs) {
    (void)store.materialize(spec, 1.0, locality, rng);
  }
  for (std::size_t i = 0; i < store.jobs().size(); ++i) {
    const JobRuntime& job = store.jobs()[i];
    for (const auto& phase : job.phases) {
      ASSERT_NE(phase.spec, nullptr);
      EXPECT_EQ(phase.tasks.size(), static_cast<std::size_t>(phase.spec->task_count));
      for (const auto& task : phase.tasks) {
        EXPECT_GE(task.ref.task, 0);
        EXPECT_TRUE(task.copies.empty());
      }
    }
  }
}

}  // namespace
}  // namespace dollymp
