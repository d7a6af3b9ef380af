// Machine events (crash, rack and fail-slow timers) in their pop order.
//
// MachineQueue is checked against a reference std::priority_queue under the
// order the single event heap gave machine events before they moved into
// their own queue: (slot, server field, kind), with the old kind numbering.
// The golden stream hashes below pin whole runs in which every machine-event
// kind fires: straggler-aware, resilient DollyMP² under the "all" fault
// preset, on paper30 and on the 3K-server google-trace inventory.  The 36
// layout goldens never enable rack faults, so these are the runs that pin
// the same-slot order across servers, racks and kinds.  If an INTENTIONAL
// scheduling change lands, rerun the test, take the new values from the
// failure message, and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/rng.h"
#include "dollymp/common/state_io.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/machine_queue.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

// ---- the queue against the single heap's order ----------------------------

/// A machine event as the single event heap held it: the target in the
/// `server` field and the kind under the old EvKind numbering, in which
/// completions (2) and timers (3) sat between the server and rack kinds.
struct HeapEvent {
  SimTime slot = 0;
  std::int32_t server = 0;
  std::uint8_t kind = 0;

  // The old comparator restricted to machine events: every other field
  // held a fixed sentinel, and all six kinds formed group 0.
  friend bool operator>(const HeapEvent& a, const HeapEvent& b) {
    if (a.slot != b.slot) return a.slot > b.slot;
    if (a.server != b.server) return a.server > b.server;
    return a.kind > b.kind;
  }
};

constexpr std::uint8_t kOldKind[kMachineEvKinds] = {0, 1, 4, 5, 6, 7};

HeapEvent as_heap_event(const MachineEvent& e) {
  return {e.slot, e.target, kOldKind[static_cast<int>(e.kind)]};
}

using ReferenceHeap =
    std::priority_queue<HeapEvent, std::vector<HeapEvent>, std::greater<>>;

/// Random events due after `now`: mostly short delays over a few shared
/// targets, so same-slot bursts collide on (target, kind); some delays push
/// slots past 2^32.
MachineEvent random_event(Rng& rng, SimTime now) {
  MachineEvent e;
  const double u = rng.uniform();
  const SimTime delay = u < 0.6   ? 1 + static_cast<SimTime>(rng.below(4))
                        : u < 0.95 ? 1 + static_cast<SimTime>(rng.below(5000))
                                   : (SimTime{1} << 32) + static_cast<SimTime>(rng.below(1000));
  e.slot = now + delay;
  e.target = static_cast<std::int32_t>(rng.below(24));
  e.kind = static_cast<MachineEv>(rng.below(kMachineEvKinds));
  return e;
}

void push_both(MachineQueue& queue, ReferenceHeap& reference, const MachineEvent& e) {
  queue.push(e);
  reference.push(as_heap_event(e));
}

/// save_state, then load_state into a fresh queue; the copy must write the
/// same bytes.
MachineQueue round_trip(const MachineQueue& queue, SimTime now) {
  StateWriter w;
  queue.save_state(w);
  const std::vector<std::uint8_t> bytes = w.finish();
  StateReader r(bytes);
  MachineQueue restored;
  restored.load_state(r, now, 24, 24);
  r.expect_done();
  StateWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.finish(), bytes) << "restored queue re-serialized differently";
  return restored;
}

TEST(MachineQueue, PopsTheSingleHeapOrderUnderRandomTraffic) {
  Rng rng(20261019);
  MachineQueue queue;
  ReferenceHeap reference;
  SimTime now = 0;
  for (int i = 0; i < 500; ++i) push_both(queue, reference, random_event(rng, now));
  std::vector<MachineEvent> batch;
  long long taken = 0;
  for (int step = 0; step < 6000 && !queue.empty(); ++step) {
    // The simulator peeks at the next batch on every loop iteration, also
    // at the slots it visits for other events before it takes the batch.
    const SimTime next = queue.min_slot();
    ASSERT_EQ(next, reference.top().slot);
    if (rng.chance(0.3)) {
      ASSERT_EQ(queue.min_slot(), next);
    }
    now = next;
    queue.take(batch);
    ASSERT_FALSE(batch.empty());
    for (const MachineEvent& e : batch) {
      ASSERT_FALSE(reference.empty());
      const HeapEvent want = reference.top();
      reference.pop();
      const HeapEvent got = as_heap_event(e);
      ASSERT_EQ(got.slot, want.slot) << "step " << step;
      ASSERT_EQ(got.server, want.server) << "step " << step;
      ASSERT_EQ(got.kind, want.kind) << "step " << step;
    }
    ASSERT_TRUE(reference.empty() || reference.top().slot > now) << "batch left events due";
    taken += static_cast<long long>(batch.size());
    // Re-arm each taken event (one follow-up per timer chain, as the fault
    // processes do), sometimes with a burst of extras onto one slot.
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (queue.size() < 2000) push_both(queue, reference, random_event(rng, now));
    }
    if (rng.chance(0.1)) {
      const MachineEvent anchor = random_event(rng, now);
      for (int b = 0; b < 40; ++b) {
        MachineEvent e = random_event(rng, now);
        e.slot = anchor.slot;
        push_both(queue, reference, e);
      }
    }
    if (step % 997 == 0) queue = round_trip(queue, now);
    ASSERT_EQ(queue.size(), reference.size());
  }
  EXPECT_GT(taken, 20000);
}

TEST(MachineQueue, SlotsAboveTwoToTheThirtySecondStayOrdered) {
  MachineQueue queue;
  const SimTime base = (SimTime{1} << 40) + 7;
  for (const SimTime slot : {base + 3, SimTime{5}, base, (SimTime{1} << 33), base}) {
    queue.push({slot, 1, MachineEv::kServerFailure});
  }
  queue.push({base, 0, MachineEv::kRackFailure});
  std::vector<MachineEvent> batch;
  std::vector<SimTime> slots;
  while (!queue.empty()) {
    queue.take(batch);
    for (const MachineEvent& e : batch) slots.push_back(e.slot);
  }
  EXPECT_EQ(slots, (std::vector<SimTime>{5, SimTime{1} << 33, base, base, base, base + 3}));
}

// ---- whole runs through every machine kind ---------------------------------

struct AllKindsRun {
  std::uint64_t hash = 0;
  std::uint64_t records = 0;
  SimStats stats;
};

AllKindsRun run_all_kinds(const Cluster& cluster, int jobs, double gap) {
  TraceModelConfig mix;
  mix.max_tasks_per_phase = 12;
  TraceModel model(mix, 5);
  std::vector<JobSpec> specs = model.sample_jobs(jobs);
  assign_poisson_arrivals(specs, gap, 9);

  SimConfig config;
  config.seed = 3;
  const SweepFaultPreset preset = make_fault_preset("all");
  config.failures = preset.failures;
  config.faults = preset.faults;
  Recorder recorder;
  config.recorder = &recorder;

  DollyMPConfig options;
  options.clone_budget = 2;
  options.straggler_aware = true;
  options.resilience.enabled = true;
  DollyMPScheduler scheduler(options);
  AllKindsRun run;
  run.stats = simulate(cluster, config, specs, scheduler).stats;
  run.hash = recorder.hash();
  run.records = recorder.records_written();
  return run;
}

void expect_every_machine_kind(const SimStats& stats) {
  EXPECT_GT(stats.events_server_failure, 0);
  EXPECT_GT(stats.events_server_repair, 0);
  EXPECT_GT(stats.events_rack_failure, 0);
  EXPECT_GT(stats.events_rack_repair, 0);
  EXPECT_GT(stats.events_fail_slow_onset, 0);
  EXPECT_GT(stats.events_fail_slow_recover, 0);
  EXPECT_GT(stats.events_copy_fault, 0);
}

constexpr std::uint64_t kPaperGoldenHash = 0xbd4efcdb3e356103ULL;
constexpr std::uint64_t kPaperGoldenRecords = 219077ULL;
constexpr std::uint64_t kTraceGoldenHash = 0x4a518cd348e1e552ULL;
constexpr std::uint64_t kTraceGoldenRecords = 57174ULL;

TEST(MachineEvents, AllKindsGoldenPinnedOnPaper30) {
  const AllKindsRun run = run_all_kinds(Cluster::paper30(), 120, 20.0);
  expect_every_machine_kind(run.stats);
  EXPECT_EQ(run.hash, kPaperGoldenHash) << "stream hash changed: 0x" << std::hex << run.hash;
  EXPECT_EQ(run.records, kPaperGoldenRecords) << "record count changed: " << run.records;
}

TEST(MachineEvents, AllKindsGoldenPinnedOnGoogleTrace3k) {
  const AllKindsRun run = run_all_kinds(Cluster::google_trace(3000), 40, 8.0);
  expect_every_machine_kind(run.stats);
  EXPECT_EQ(run.hash, kTraceGoldenHash) << "stream hash changed: 0x" << std::hex << run.hash;
  EXPECT_EQ(run.records, kTraceGoldenRecords) << "record count changed: " << run.records;
}

}  // namespace
}  // namespace dollymp
