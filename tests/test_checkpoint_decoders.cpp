// Hostile-payload hardening of the DMPCKPT01 decoders.
//
// The envelope hash detects corruption, not crafted payloads: anything
// sealed by a StateWriter passes it.  These tests seal hostile payloads on
// purpose, so the decoders themselves must bound every count by the bytes
// left and range-check every index they restore, failing with
// std::runtime_error instead of a length_error, a huge allocation or a wild
// write.  The first group pins one regression per decoder site; the mutation
// fuzz then throws a few thousand re-sealed mutations of real mid-run
// SimCore and Session snapshots at the loaders, and one fuzz confined to the
// event blocks runs every mutation that loads to the end of its run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/rng.h"
#include "dollymp/common/state_io.h"
#include "dollymp/learn/server_scorer.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/resilience.h"
#include "dollymp/service/session.h"
#include "dollymp/sim/runtime_store.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 62;

// Section tags of SimCore (sim_core.cpp) and RuntimeStore (runtime_store.cpp),
// as StateWriter::section frames them.
constexpr std::uint32_t kTagSpecs = 0x53504543u;     // 'SPEC'
constexpr std::uint32_t kTagStore = 0x53544F52u;     // 'STOR'
constexpr std::uint32_t kTagArrivals = 0x41525256u;  // 'ARRV'
constexpr std::uint32_t kTagHeap = 0x48454150u;      // 'HEAP'

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& sealed) {
  return {sealed.begin() + static_cast<std::ptrdiff_t>(kStateHeaderBytes),
          sealed.end() - 8};
}

/// Seal `payload` in a valid envelope: only the decoders can reject it.
std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& payload) {
  StateWriter w;
  w.bytes(payload.data(), payload.size());
  return w.finish();
}

template <typename T>
T read_at(const std::vector<std::uint8_t>& payload, std::size_t at) {
  T v;
  std::memcpy(&v, payload.data() + at, sizeof(v));
  return v;
}

template <typename T>
void write_at(std::vector<std::uint8_t>& payload, std::size_t at, T v) {
  std::memcpy(payload.data() + at, &v, sizeof(v));
}

/// Payload offset just past the section marker for `tag`.
std::size_t after_section(const std::vector<std::uint8_t>& payload, std::uint32_t tag) {
  const std::uint32_t marker = 0x5EC70000u ^ tag;
  for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
    if (read_at<std::uint32_t>(payload, at) == marker) return at + 4;
  }
  ADD_FAILURE() << "section " << tag << " not found";
  return payload.size();
}

/// Run `load`, require a std::runtime_error whose message names `needle`.
template <typename Load>
void expect_rejected(Load&& load, const std::string& needle) {
  try {
    load();
    ADD_FAILURE() << "hostile payload loaded; expected an error naming '" << needle
                  << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

// ---- the mid-run SimCore snapshot ------------------------------------------

SimConfig fuzz_config() {
  SimConfig config;
  config.seed = 3;
  config.background.enabled = false;
  const SweepFaultPreset preset = make_fault_preset("all");
  config.failures = preset.failures;
  config.faults = preset.faults;
  return config;
}

std::unique_ptr<DollyMPScheduler> fuzz_policy() {
  DollyMPConfig config;
  config.clone_budget = 2;
  config.straggler_aware = true;
  config.resilience.enabled = true;
  return std::make_unique<DollyMPScheduler>(config);
}

/// paper30 under straggler-aware, resilient DollyMP² with every fault
/// class on, checkpointed at the median arrival: pending arrivals, active
/// jobs, copies in flight and a populated scheduler blob.
const std::vector<std::uint8_t>& core_snapshot() {
  static const std::vector<std::uint8_t> bytes = [] {
    TraceModelConfig mix;
    mix.max_tasks_per_phase = 12;
    TraceModel model(mix, 5);
    std::vector<JobSpec> jobs = model.sample_jobs(40);
    assign_poisson_arrivals(jobs, 8.0, 9);
    std::vector<double> arrivals;
    for (const JobSpec& j : jobs) arrivals.push_back(j.arrival_seconds);
    std::sort(arrivals.begin(), arrivals.end());

    const SimConfig config = fuzz_config();
    SimCore core(Cluster::paper30(), config);
    core.ingest(jobs);
    const auto policy = fuzz_policy();
    core.begin(*policy);
    (void)core.step_until(
        static_cast<SimTime>(arrivals[arrivals.size() / 2] / config.slot_seconds));
    StateWriter w;
    core.save_state(w);
    return w.finish();
  }();
  return bytes;
}

void load_core(const std::vector<std::uint8_t>& bytes) {
  SimCore core(Cluster::paper30(), fuzz_config());
  const auto policy = fuzz_policy();
  core.begin(*policy);
  StateReader r(bytes);
  core.load_state(r, /*load_scheduler=*/true);
}

// ---- counts: one regression per decoder site -------------------------------

TEST(CheckpointDecoders, ServerScorerRejectsCountBeyondPayload) {
  ServerScorer saved(1);
  StateWriter w;
  saved.save_state(w);
  w.patch_u64(4, kHugeCount);  // past the u32 record size
  const auto bytes = w.finish();
  expect_rejected(
      [&] {
        StateReader r(bytes);
        ServerScorer scorer(0);
        scorer.load_state(r);
      },
      "vector count");
}

TEST(CheckpointDecoders, ResilienceRejectsBackoffCountBeyondPayload) {
  ResilienceConfig config;
  config.enabled = true;
  const ResiliencePolicy saved(config, 4);
  StateWriter w;
  saved.save_state(w);
  w.patch_u64(w.size() - 8, kHugeCount);  // no holds: the count is last
  const auto bytes = w.finish();
  expect_rejected(
      [&] {
        StateReader r(bytes);
        ResiliencePolicy policy(config, 4);
        policy.load_state(r);
      },
      "backoff count");
}

TEST(CheckpointDecoders, RuntimeStoreRejectsTaskCountBeyondPayload) {
  const RuntimeStore saved;
  StateWriter w;
  saved.save_state(w);
  w.patch_u64(w.size() - 12 - 8, kHugeCount);  // before the free-slot vector
  const auto bytes = w.finish();
  expect_rejected(
      [&] {
        StateReader r(bytes);
        RuntimeStore store;
        store.load_state(r, {});
      },
      "task count");
}

TEST(CheckpointDecoders, SimCoreRejectsPendingArrivalCountBeyondPayload) {
  auto payload = payload_of(core_snapshot());
  write_at(payload, after_section(payload, kTagArrivals), kHugeCount);
  expect_rejected([&] { load_core(seal(payload)); }, "pending arrival count");
}

TEST(CheckpointDecoders, SimCoreRejectsActiveJobCountBeyondPayload) {
  auto payload = payload_of(core_snapshot());
  const std::size_t at = after_section(payload, kTagArrivals);
  const auto pending = read_at<std::uint64_t>(payload, at);
  write_at(payload, at + 8 + 4 * pending, kHugeCount);
  expect_rejected([&] { load_core(seal(payload)); }, "active job count");
}

TEST(CheckpointDecoders, JobSpecRejectsPhaseCountBeyondPayload) {
  auto payload = payload_of(core_snapshot());
  // First spec after the slot count: i32 id, name, app, f64 arrival, phases.
  std::size_t at = after_section(payload, kTagSpecs) + 8 + 4;
  at += 8 + read_at<std::uint64_t>(payload, at);
  at += 8 + read_at<std::uint64_t>(payload, at);
  write_at(payload, at + 8, kHugeCount);
  expect_rejected([&] { load_core(seal(payload)); }, "phase spec count");
}

// ---- indices ---------------------------------------------------------------

TEST(CheckpointDecoders, DollyMPRejectsPriorityCountBeyondPayload) {
  // The priority block is one record per job slot: a count past the bytes
  // left must not size the cache.
  DollyMPScheduler saved;
  saved.reset();
  StateWriter w;
  saved.save_state(w);
  w.patch_u64(4, kHugeCount);  // past the u32 record size
  const auto bytes = w.finish();
  DollyMPScheduler policy;
  policy.reset();
  StateReader r(bytes);
  expect_rejected([&] { policy.load_state(r); }, "snapshot: vector count");
}

TEST(CheckpointDecoders, SimCoreRejectsPendingArrivalIndexOutOfRange) {
  auto payload = payload_of(core_snapshot());
  const std::size_t at = after_section(payload, kTagArrivals);
  ASSERT_GT(read_at<std::uint64_t>(payload, at), 0u) << "snapshot has no pending arrival";
  write_at(payload, at + 8, std::int32_t{1000});
  expect_rejected([&] { load_core(seal(payload)); }, "pending arrival job index 1000");
}

TEST(CheckpointDecoders, SimCoreRejectsActiveJobIndexOutOfRange) {
  auto payload = payload_of(core_snapshot());
  const std::size_t at = after_section(payload, kTagArrivals);
  const std::size_t active = at + 8 + 4 * read_at<std::uint64_t>(payload, at);
  ASSERT_GT(read_at<std::uint64_t>(payload, active), 0u) << "snapshot has no active job";
  write_at(payload, active + 8, std::int32_t{-7});
  expect_rejected([&] { load_core(seal(payload)); }, "active job index -7");
}

// ---- the HEAP section's two event blocks -----------------------------------

/// Payload offsets inside the HEAP section: the main heap's SimEvent array
/// and the machine queue's floor and MachineEvent array.  Each array is a
/// pod_vec block (u32 record size, u64 count, records).
struct EventBlocks {
  std::size_t heap = 0;  ///< first SimEvent
  std::uint64_t heap_count = 0;
  std::size_t floor = 0;    ///< the machine queue's i64 floor
  std::size_t machine = 0;  ///< first MachineEvent
  std::uint64_t machine_count = 0;
  std::size_t end = 0;  ///< one past the last MachineEvent
};

EventBlocks event_blocks(const std::vector<std::uint8_t>& payload) {
  EventBlocks b;
  const std::size_t at = after_section(payload, kTagHeap);
  b.heap_count = read_at<std::uint64_t>(payload, at + 4);
  b.heap = at + 4 + 8;
  b.floor = b.heap + b.heap_count * sizeof(SimEvent);
  b.machine_count = read_at<std::uint64_t>(payload, b.floor + 8 + 4);
  b.machine = b.floor + 8 + 4 + 8;
  b.end = b.machine + b.machine_count * sizeof(MachineEvent);
  return b;
}

/// Rewrite the first event of type `Event` (SimEvent: the main heap,
/// MachineEvent: the machine queue) that `pick` accepts with `edit`.
template <typename Event, typename Pick, typename Edit>
std::vector<std::uint8_t> edit_first(const std::vector<std::uint8_t>& snapshot, Pick&& pick,
                                     Edit&& edit) {
  auto payload = payload_of(snapshot);
  const EventBlocks b = event_blocks(payload);
  constexpr bool machine = std::is_same_v<Event, MachineEvent>;
  const std::size_t first = machine ? b.machine : b.heap;
  const std::uint64_t count = machine ? b.machine_count : b.heap_count;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t record = first + i * sizeof(Event);
    auto e = read_at<Event>(payload, record);
    if (!pick(e)) continue;
    edit(e);
    write_at(payload, record, e);
    return seal(payload);
  }
  ADD_FAILURE() << "no matching event in the snapshot";
  return seal(payload);
}

template <typename Pick, typename Edit>
std::vector<std::uint8_t> edit_first_event(Pick&& pick, Edit&& edit) {
  return edit_first<SimEvent>(core_snapshot(), pick, edit);
}

template <typename Pick, typename Edit>
std::vector<std::uint8_t> edit_first_machine_event(Pick&& pick, Edit&& edit) {
  return edit_first<MachineEvent>(core_snapshot(), pick, edit);
}

/// The saved clock: the CORE section's first field.
SimTime saved_clock() {
  const auto payload = payload_of(core_snapshot());
  return read_at<SimTime>(payload, 4);
}

/// Job slots of the snapshot's active (arrived, unfinished) jobs.
std::vector<std::int32_t> active_slots() {
  const auto payload = payload_of(core_snapshot());
  const std::size_t at = after_section(payload, kTagArrivals);
  const std::size_t active = at + 8 + 4 * read_at<std::uint64_t>(payload, at);
  std::vector<std::int32_t> slots(read_at<std::uint64_t>(payload, active));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = read_at<std::int32_t>(payload, active + 8 + 4 * i);
  }
  return slots;
}

bool is_completion_of_active_job(const SimEvent& e) {
  const auto active = active_slots();
  return e.kind == EvKind::kCompletion &&
         std::find(active.begin(), active.end(), e.job_index) != active.end();
}

TEST(CheckpointDecoders, SimCoreRejectsEventJobIndexOutOfRange) {
  const auto bytes = edit_first_event([](const SimEvent& e) { return e.job_index >= 0; },
                                      [](SimEvent& e) { e.job_index = 1 << 20; });
  expect_rejected([&] { load_core(bytes); }, "event job index 1048576");
}

TEST(CheckpointDecoders, SimCoreRejectsCompletionWithoutAJobSlot) {
  const auto bytes = edit_first_event(
      [](const SimEvent& e) { return e.kind == EvKind::kCompletion; },
      [](SimEvent& e) { e.job_index = -1; });
  expect_rejected([&] { load_core(bytes); }, "event job index -1 outside the");
}

TEST(CheckpointDecoders, SimCoreRejectsEventKindOutOfRange) {
  const auto bytes = edit_first_event([](const SimEvent&) { return true; },
                                      [](SimEvent& e) { e.kind = static_cast<EvKind>(3); });
  expect_rejected([&] { load_core(bytes); }, "event kind 3 outside the 3 kinds");
}

TEST(CheckpointDecoders, SimCoreRejectsEventPhaseOutsideTheJob) {
  const auto bytes = edit_first_event(
      [](const SimEvent& e) { return e.kind == EvKind::kCompletion; },
      [](SimEvent& e) { e.phase = 1 << 20; });
  expect_rejected([&] { load_core(bytes); }, "event phase 1048576 outside job slot");
}

TEST(CheckpointDecoders, SimCoreRejectsEventTaskOutsideThePhase) {
  const auto bytes = edit_first_event(
      [](const SimEvent& e) { return e.kind == EvKind::kCompletion; },
      [](SimEvent& e) { e.task = 1 << 20; });
  expect_rejected([&] { load_core(bytes); }, "event task 1048576 outside phase");
}

TEST(CheckpointDecoders, SimCoreRejectsEventCopyOutsideTheTask) {
  for (const std::int32_t copy : {1 << 20, -2}) {
    const auto bytes = edit_first_event(is_completion_of_active_job,
                                        [&](SimEvent& e) { e.copy = copy; });
    expect_rejected([&] { load_core(bytes); },
                    "event copy " + std::to_string(copy) + " outside the task's");
  }
}

TEST(CheckpointDecoders, SimCoreRejectsTimerCarryingAJobPayload) {
  const auto bytes = edit_first_event(
      [](const SimEvent& e) { return e.kind != EvKind::kCompletion; },
      [](SimEvent& e) { e.task = 0; });
  expect_rejected([&] { load_core(bytes); }, "carries a job payload");
}

TEST(CheckpointDecoders, SimCoreRejectsEventDueAtTheSavedClock) {
  const SimTime now = saved_clock();
  ASSERT_GT(now, 0);
  const auto heap = edit_first_event([](const SimEvent&) { return true; },
                                     [&](SimEvent& e) { e.slot = now; });
  expect_rejected([&] { load_core(heap); },
                  "event slot " + std::to_string(now) + " not after the saved clock");
  // A machine event due at the clock: the floor goes with it, so the clock
  // check is the one that fires.
  auto payload = payload_of(core_snapshot());
  const EventBlocks b = event_blocks(payload);
  ASSERT_GT(b.machine_count, 0u);
  write_at(payload, b.floor, now);
  auto e = read_at<MachineEvent>(payload, b.machine);
  e.slot = now;
  write_at(payload, b.machine, e);
  expect_rejected([&] { load_core(seal(payload)); },
                  "event slot " + std::to_string(now) + " not after the saved clock");
}

TEST(CheckpointDecoders, SimCoreRejectsTimerCountMismatch) {
  auto payload = payload_of(core_snapshot());
  // CORE: now, first_visit, streaming, jobs_remaining, active copies and
  // three invocation flags precede the pending timer count.
  write_at(payload, 4 + 8 + 1 + 1 + 4 + 8 + 1 + 1 + 1, std::uint64_t{99});
  expect_rejected([&] { load_core(seal(payload)); }, "pending timer count of 99");
}

TEST(CheckpointDecoders, SimCoreRejectsCompletionCountMismatch) {
  // Move one completion to another live job: both slots' counts go wrong.
  const auto active = active_slots();
  ASSERT_GE(active.size(), 2u);
  const auto bytes = edit_first_event(is_completion_of_active_job, [&](SimEvent& e) {
    e.job_index = e.job_index == active[0] ? active[1] : active[0];
    e.phase = 0;
    e.task = 0;
    e.copy = -1;
  });
  expect_rejected([&] { load_core(bytes); }, "queued completions but counts");
}

TEST(CheckpointDecoders, SimCoreRejectsCompletionOnARecycledSlot) {
  // A streaming core recycles a finished job's slot once its last event
  // drains; no event may name that slot again.
  TraceModelConfig mix;
  mix.max_tasks_per_phase = 12;
  TraceModel model(mix, 5);
  std::vector<JobSpec> jobs = model.sample_jobs(40);
  assign_poisson_arrivals(jobs, 8.0, 9);
  SimCore core(Cluster::paper30(), fuzz_config());
  core.set_streaming(true);
  core.ingest(jobs);
  const auto policy = fuzz_policy();
  core.begin(*policy);
  std::vector<double> arrivals;
  for (const JobSpec& j : jobs) arrivals.push_back(j.arrival_seconds);
  std::sort(arrivals.begin(), arrivals.end());
  (void)core.step_until(static_cast<SimTime>(arrivals[arrivals.size() / 2] /
                                             fuzz_config().slot_seconds));
  StateWriter w;
  core.save_state(w);
  const std::vector<std::uint8_t> snapshot = w.finish();
  // One ingest call, so slots 0..39 hold the 40 jobs.  A slot that is
  // neither a pending arrival, nor active, nor named by a queued event
  // holds a finished job whose last event drained: a recycled slot.
  const auto payload = payload_of(snapshot);
  std::vector<bool> in_use(jobs.size(), false);
  std::size_t at = after_section(payload, kTagArrivals);
  for (int list = 0; list < 2; ++list) {  // pending arrivals, then active jobs
    const auto count = read_at<std::uint64_t>(payload, at);
    for (std::uint64_t i = 0; i < count; ++i) {
      in_use[static_cast<std::size_t>(read_at<std::int32_t>(payload, at + 8 + 4 * i))] = true;
    }
    at += 8 + 4 * count;
  }
  const EventBlocks b = event_blocks(payload);
  for (std::uint64_t i = 0; i < b.heap_count; ++i) {
    const auto e = read_at<SimEvent>(payload, b.heap + i * sizeof(SimEvent));
    if (e.kind == EvKind::kCompletion) in_use[static_cast<std::size_t>(e.job_index)] = true;
  }
  const auto free_slot = std::find(in_use.begin(), in_use.end(), false);
  ASSERT_NE(free_slot, in_use.end()) << "no job slot was recycled";
  const auto slot = static_cast<std::int32_t>(free_slot - in_use.begin());
  const auto bytes = edit_first<SimEvent>(
      snapshot, [](const SimEvent& e) { return e.kind == EvKind::kCompletion; },
      [&](SimEvent& e) { e.job_index = slot; });
  expect_rejected([&] { load_core(bytes); },
                  "event job index " + std::to_string(slot) + " names a recycled slot");
}

TEST(CheckpointDecoders, SimCoreRejectsCopyFaultWithoutAFaultEngine) {
  SimConfig healthy = fuzz_config();
  healthy.failures = {};
  healthy.faults = {};
  TraceModelConfig mix;
  mix.max_tasks_per_phase = 12;
  TraceModel model(mix, 5);
  std::vector<JobSpec> jobs = model.sample_jobs(10);
  assign_poisson_arrivals(jobs, 8.0, 9);
  SimCore core(Cluster::paper30(), healthy);
  core.ingest(jobs);
  const auto policy = fuzz_policy();
  core.begin(*policy);
  (void)core.step_until(static_cast<SimTime>(jobs[5].arrival_seconds / healthy.slot_seconds));
  StateWriter w;
  core.save_state(w);
  const auto bytes = edit_first<SimEvent>(
      w.finish(), [](const SimEvent& e) { return e.kind == EvKind::kCompletion; },
      [](SimEvent& e) { e = SimEvent{e.slot, EvKind::kCopyFault}; });
  expect_rejected(
      [&] {
        SimCore restored(Cluster::paper30(), healthy);
        const auto fresh = fuzz_policy();
        restored.begin(*fresh);
        StateReader r(bytes);
        restored.load_state(r, /*load_scheduler=*/true);
      },
      "copy-fault timer without a fault engine");
}

TEST(CheckpointDecoders, SimCoreRejectsEventServerOutOfRange) {
  const auto bytes = edit_first_machine_event(
      [](const MachineEvent& e) {
        return e.kind != MachineEv::kRackRepair && e.kind != MachineEv::kRackFailure;
      },
      [](MachineEvent& e) { e.target = 30; });
  expect_rejected([&] { load_core(bytes); }, "event server 30 outside the 30 servers");
}

TEST(CheckpointDecoders, SimCoreRejectsEventRackOutOfRange) {
  const int racks = Cluster::paper30().rack_count();
  const auto bytes = edit_first_machine_event(
      [](const MachineEvent& e) {
        return e.kind == MachineEv::kRackRepair || e.kind == MachineEv::kRackFailure;
      },
      [&](MachineEvent& e) { e.target = racks; });
  expect_rejected([&] { load_core(bytes); },
                  "event rack " + std::to_string(racks) + " outside the " +
                      std::to_string(racks) + " racks");
}

TEST(CheckpointDecoders, SimCoreRejectsMachineEventKindOutOfRange) {
  const auto bytes = edit_first_machine_event(
      [](const MachineEvent&) { return true; },
      [](MachineEvent& e) { e.kind = static_cast<MachineEv>(6); });
  expect_rejected([&] { load_core(bytes); }, "machine event kind 6 outside the 6 kinds");
}

TEST(CheckpointDecoders, SimCoreRejectsMachineEventBeforeTheFloor) {
  auto payload = payload_of(core_snapshot());
  const EventBlocks b = event_blocks(payload);
  ASSERT_GT(b.machine_count, 0u);
  const SimTime floor = read_at<SimTime>(payload, b.floor);
  auto e = read_at<MachineEvent>(payload, b.machine);
  e.slot = floor - 1;
  write_at(payload, b.machine, e);
  expect_rejected([&] { load_core(seal(payload)); },
                  "machine event slot " + std::to_string(floor - 1) +
                      " before the queue floor " + std::to_string(floor));
}

TEST(CheckpointDecoders, SimCoreRejectsNegativeMachineQueueFloor) {
  auto payload = payload_of(core_snapshot());
  write_at(payload, event_blocks(payload).floor, SimTime{-1});
  expect_rejected([&] { load_core(seal(payload)); }, "machine queue floor -1 is negative");
}

TEST(CheckpointDecoders, ServerTableRejectsRackOutOfRange) {
  const Cluster saved = Cluster::uniform(2, Resources{4, 8});
  StateWriter w;
  saved.save_state(w);
  auto payload = payload_of(w.finish());
  // Columns: capacity, used, base speed, slow factor, then rack.
  std::size_t at = 0;
  for (const std::size_t record : {sizeof(Resources), sizeof(Resources), sizeof(double),
                                   sizeof(double)}) {
    at += 4 + 8 + 2 * record;
  }
  write_at(payload, at + 4 + 8, std::int32_t{1 << 30});
  expect_rejected(
      [&] {
        const auto bytes = seal(payload);
        StateReader r(bytes);
        Cluster cluster;
        cluster.load_state(r);
      },
      "rack 1073741824 outside [0, 2)");
}

TEST(CheckpointDecoders, RuntimeStoreRejectsExtentOutsideTheTaskArray) {
  auto payload = payload_of(core_snapshot());
  // STOR: durations, job extents, then phase extents {task_begin, ...}.
  std::size_t at = after_section(payload, kTagStore);
  at += 4 + 8 + 8 * read_at<std::uint64_t>(payload, at + 4);   // durations
  at += 4 + 8 + 8 * read_at<std::uint64_t>(payload, at + 4);   // job extents
  write_at(payload, at + 4 + 8, std::uint32_t{0xFFFFFFF0u});   // first task_begin
  expect_rejected([&] { load_core(seal(payload)); }, "phase extent outside");
}

// ---- mutation fuzz ---------------------------------------------------------

/// One deterministic mutation of `payload`: a bit flip, a boundary integer
/// written over 4 or 8 bytes, a truncation, or a splice (a prefix joined to
/// a suffix taken from elsewhere in the payload).
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& payload, Rng& rng) {
  std::vector<std::uint8_t> m = payload;
  switch (rng.below(4)) {
    case 0:
      m[rng.below(m.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1: {
      static constexpr std::uint64_t kBoundary[] = {0, ~std::uint64_t{0}, 0x7FFFFFFFu,
                                                    std::uint64_t{1} << 63};
      const std::uint64_t wide = kBoundary[rng.below(4)];
      const std::size_t width = rng.chance(0.5) ? 4 : 8;
      const std::size_t at = rng.below(m.size() - width + 1);
      if (width == 4) {
        // 2^63 narrows to 2^31: the i32 fields' sign bit.
        write_at(m, at, static_cast<std::uint32_t>(wide == (std::uint64_t{1} << 63)
                                                       ? 0x80000000u
                                                       : wide));
      } else {
        write_at(m, at, wide);
      }
      break;
    }
    case 2:
      m.resize(rng.below(m.size()));
      break;
    default: {
      const std::size_t cut = rng.below(m.size());
      const std::size_t from = rng.below(payload.size());
      m.resize(cut);
      m.insert(m.end(), payload.begin() + static_cast<std::ptrdiff_t>(from),
               payload.end());
      break;
    }
  }
  return m;
}

struct FuzzTally {
  int loaded = 0;
  int rejected = 0;
  std::vector<std::string> escaped;  ///< anything but std::runtime_error
};

template <typename Load>
FuzzTally fuzz(const std::vector<std::uint8_t>& sealed, int cases, std::uint64_t seed,
               Load&& load) {
  const std::vector<std::uint8_t> payload = payload_of(sealed);
  Rng rng(seed);
  FuzzTally tally;
  for (int i = 0; i < cases; ++i) {
    const std::vector<std::uint8_t> bytes = seal(mutate(payload, rng));
    try {
      load(bytes);
      ++tally.loaded;
    } catch (const std::runtime_error&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      tally.escaped.push_back("case " + std::to_string(i) + ": " + e.what());
    }
  }
  return tally;
}

TEST(CheckpointFuzz, SimCoreSnapshotMutationsLoadOrThrowRuntimeError) {
  EXPECT_NO_THROW(load_core(core_snapshot()));  // the unmutated snapshot loads
  const FuzzTally tally = fuzz(core_snapshot(), 2000, 0xC0FFEE, load_core);
  EXPECT_TRUE(tally.escaped.empty()) << tally.escaped.size() << " escaped, first: "
                                     << tally.escaped.front();
  // Not vacuous: some mutations land in slack (doubles, stats) and load,
  // most break a decoder.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.rejected, tally.loaded);
}

TEST(CheckpointFuzz, EventBlockMutationsRejectOrRunToTheEnd) {
  // Mutations confined to the HEAP section's two event blocks (counts,
  // events and the machine queue's floor), each loaded mutation then run to
  // its end: a decoder that lets a bad event through shows up as a crash or
  // a sanitizer report in the run, not at load.
  const std::vector<std::uint8_t> payload = payload_of(core_snapshot());
  const EventBlocks b = event_blocks(payload);
  const std::size_t first = b.heap - 8;  // the heap's event count
  Rng rng(0xE7E47);
  int rejected = 0;
  int ran = 0;
  std::vector<std::string> escaped;
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> m = payload;
    if (rng.chance(0.5)) {
      m[first + rng.below(b.end - first)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    } else {
      static constexpr std::uint32_t kBoundary[] = {0, ~0u, 0x7FFFFFFFu, 0x80000000u, 1u, 31u};
      write_at(m, first + rng.below(b.end - first - 3), kBoundary[rng.below(6)]);
    }
    SimCore core(Cluster::paper30(), fuzz_config());
    const auto policy = fuzz_policy();
    core.begin(*policy);
    try {
      const auto bytes = seal(m);
      StateReader r(bytes);
      core.load_state(r, /*load_scheduler=*/true);
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()).rfind("snapshot: ", 0) == 0) {
        ++rejected;
      } else {
        escaped.push_back("case " + std::to_string(i) + ": " + e.what());
      }
      continue;
    } catch (const std::exception& e) {
      escaped.push_back("case " + std::to_string(i) + ": " + e.what());
      continue;
    }
    try {
      (void)core.step_until(SimCore::kUnbounded);
    } catch (const std::exception&) {
      // A run that throws (a stall, the max_slots valve) ends cleanly.
    }
    ++ran;
  }
  EXPECT_TRUE(escaped.empty()) << escaped.size() << " escaped, first: " << escaped.front();
  EXPECT_GT(ran, 0);
  EXPECT_GT(rejected, 0);
}

ServiceConfig fuzz_service_config() {
  ServiceConfig config;
  config.policy = "dollymp2";
  config.arrivals.rate_per_second = 0.1;
  config.arrivals.mean_input_gb = 1.0;
  config.arrivals.seed = 17;
  config.sim.seed = 5;
  config.sim.failures.enabled = true;
  config.sim.failures.mean_time_to_failure_seconds = 900.0;
  config.sim.failures.mean_repair_seconds = 120.0;
  return config;
}

TEST(CheckpointFuzz, SessionSnapshotMutationsLoadOrThrowRuntimeError) {
  Session session(Cluster::paper30(), fuzz_service_config());
  session.run_until(120);
  const std::vector<std::uint8_t> snapshot = session.serialize();

  // Session::restore reads a file; write each case with plain stdio (no
  // fsync) to keep the loop fast.
  const std::string path = testing::TempDir() + "/dollymp_checkpoint_fuzz.ckpt";
  const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    (void)Session::restore(Cluster::paper30(), fuzz_service_config(), path);
  };
  EXPECT_NO_FATAL_FAILURE(restore(snapshot));
  const FuzzTally tally = fuzz(snapshot, 1000, 0x5E55104E, restore);
  std::remove(path.c_str());
  EXPECT_TRUE(tally.escaped.empty()) << tally.escaped.size() << " escaped, first: "
                                     << tally.escaped.front();
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GT(tally.rejected, tally.loaded);
}

}  // namespace
}  // namespace dollymp
