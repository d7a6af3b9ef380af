// Flight recorder unit tests: ring semantics, incremental stream hashing,
// binary log round-trips, the recorder counters surfaced through SimStats
// after an instrumented simulation run, and the simulation-event records
// checked against the run's aggregates.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "recorded_run.h"

namespace dollymp {
namespace {

TraceRecord make_record(SimTime slot, TraceEv type, JobId job = -1) {
  TraceRecord r;
  r.slot = slot;
  r.type = type;
  r.job = job;
  return r;
}

TEST(Recorder, UnboundedKeepsEverythingInOrder) {
  Recorder rec;
  for (int i = 0; i < 100; ++i) {
    rec.append(make_record(i, TraceEv::kJobArrival, i));
  }
  EXPECT_FALSE(rec.bounded());
  EXPECT_EQ(rec.records_written(), 100u);
  EXPECT_EQ(rec.evictions(), 0u);
  EXPECT_EQ(rec.bytes_written(), 100u * kTraceRecordWireBytes);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 100u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);  // seq stamped by the recorder
    EXPECT_EQ(records[i].job, static_cast<JobId>(i));
  }
}

TEST(Recorder, RingKeepsNewestAndCountsEvictions) {
  Recorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.append(make_record(i, TraceEv::kJobArrival, i));
  }
  EXPECT_TRUE(rec.bounded());
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.records_written(), 20u);
  EXPECT_EQ(rec.evictions(), 12u);
  EXPECT_EQ(rec.size(), 8u);
  const auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first unroll: the retained window is seq 12..19.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 12 + i);
  }
}

TEST(Recorder, RingHashCoversEvictedRecords) {
  // The incremental hash fingerprints the *full* stream: a tiny ring and an
  // unbounded recorder fed the same records must agree.
  Recorder ring(4);
  Recorder full;
  for (int i = 0; i < 50; ++i) {
    const auto r = make_record(i * 3, TraceEv::kCopyPlaced, i % 7);
    ring.append(r);
    full.append(r);
  }
  EXPECT_EQ(ring.hash(), full.hash());
  EXPECT_EQ(ring.records_written(), full.records_written());
}

TEST(Recorder, HashIsOrderSensitive) {
  const auto a = make_record(1, TraceEv::kCopyPlaced, 0);
  const auto b = make_record(1, TraceEv::kCopyFinished, 0);
  Recorder ab;
  ab.append(a);
  ab.append(b);
  Recorder ba;
  ba.append(b);
  ba.append(a);
  EXPECT_NE(ab.hash(), ba.hash());

  Recorder ab2;
  ab2.append(a);
  ab2.append(b);
  EXPECT_EQ(ab.hash(), ab2.hash());
}

TEST(Recorder, HashIsPayloadSensitive) {
  auto r = make_record(7, TraceEv::kPlacementQuery);
  r.server = 3;
  r.score = 1.25;
  Recorder x;
  x.append(r);
  r.score = 1.250001;
  Recorder y;
  y.append(r);
  EXPECT_NE(x.hash(), y.hash());
}

TEST(Recorder, DumpDecodesOldestFirstAndNotesEvictions) {
  Recorder rec(2);
  rec.append(make_record(1, TraceEv::kJobArrival, 4));
  rec.append(make_record(2, TraceEv::kCopyPlaced, 4));
  rec.append(make_record(3, TraceEv::kJobCompleted, 4));
  std::ostringstream os;
  rec.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("1 older record(s) evicted"), std::string::npos);
  EXPECT_NE(text.find("copy-placed"), std::string::npos);
  EXPECT_NE(text.find("job-completed"), std::string::npos);
  EXPECT_EQ(text.find("job-arrival"), std::string::npos);  // evicted
  EXPECT_LT(text.find("copy-placed"), text.find("job-completed"));
}

TEST(Recorder, ClearResetsStreamState) {
  Recorder rec(4);
  rec.append(make_record(1, TraceEv::kJobArrival));
  const auto first_hash = rec.hash();
  rec.clear();
  EXPECT_EQ(rec.records_written(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.hash(), kTraceHashSeed);
  rec.append(make_record(1, TraceEv::kJobArrival));
  EXPECT_EQ(rec.hash(), first_hash);  // same stream from scratch
}

TEST(TraceLog, SaveLoadRoundTrip) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 17; ++i) {
    auto r = make_record(i * 5, static_cast<TraceEv>(i % 16), i);
    r.phase = i % 3;
    r.task = i;
    r.copy = i % 2;
    r.server = 20 - i;
    r.aux = -i;
    r.score = 0.5 * i;
    r.seq = static_cast<std::uint64_t>(i);
    records.push_back(r);
  }
  const std::string path = ::testing::TempDir() + "dollymp_trace_roundtrip.dmptrc";
  save_log(path, records, 2.5, 4);
  const TraceLog loaded = load_log(path);
  EXPECT_DOUBLE_EQ(loaded.slot_seconds, 2.5);
  EXPECT_EQ(loaded.threads_resolved, 4);
  ASSERT_EQ(loaded.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded.records[i], records[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceLog, ReadsLegacyV1Header) {
  // A DMPTRC01 file has no threads_resolved field: slot_seconds is followed
  // directly by the record count.  Hand-assemble an empty one.
  const std::string path = ::testing::TempDir() + "dollymp_trace_legacy.dmptrc";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("DMPTRC01", 8);
    const double slot_seconds = 3.0;
    out.write(reinterpret_cast<const char*>(&slot_seconds), sizeof(slot_seconds));
    const std::uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  const TraceLog loaded = load_log(path);
  EXPECT_DOUBLE_EQ(loaded.slot_seconds, 3.0);
  EXPECT_EQ(loaded.threads_resolved, 1) << "legacy files default to serial";
  EXPECT_TRUE(loaded.records.empty());
  std::remove(path.c_str());
}

TEST(TraceLog, RejectsForeignFile) {
  const std::string path = ::testing::TempDir() + "dollymp_trace_bogus.dmptrc";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a trace log at all";
  }
  EXPECT_THROW((void)load_log(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Recorder, DecodeMentionsEveryMeaningfulField) {
  auto r = make_record(42, TraceEv::kClonePlaced, 3);
  r.seq = 7;
  r.phase = 1;
  r.task = 12;
  r.copy = 2;
  r.server = 23;
  const std::string text = decode(r);
  EXPECT_NE(text.find("#7"), std::string::npos);
  EXPECT_NE(text.find("slot=42"), std::string::npos);
  EXPECT_NE(text.find("clone-placed"), std::string::npos);
  EXPECT_NE(text.find("job=3"), std::string::npos);
  EXPECT_NE(text.find("phase=1"), std::string::npos);
  EXPECT_NE(text.find("task=12"), std::string::npos);
  EXPECT_NE(text.find("copy=2"), std::string::npos);
  EXPECT_NE(text.find("server=23"), std::string::npos);
}

// ---- simulator integration -------------------------------------------------

std::vector<JobSpec> small_workload(int count = 10) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 6, {1, 1}, 20.0, 15.0));
  }
  assign_poisson_arrivals(jobs, 10.0, 77);
  return jobs;
}

TEST(RecorderSim, StatsSurfaceRecorderCounters) {
  const Cluster cluster = Cluster::google_like(20);
  SimConfig config;
  config.seed = 11;
  Recorder recorder;
  config.recorder = &recorder;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, small_workload(), scheduler);

  EXPECT_GT(recorder.records_written(), 0u);
  EXPECT_EQ(result.stats.recorder_records,
            static_cast<long long>(recorder.records_written()));
  EXPECT_EQ(result.stats.recorder_bytes,
            static_cast<long long>(recorder.bytes_written()));
  EXPECT_EQ(result.stats.recorder_evictions, 0);
  EXPECT_EQ(result.stats.recorder_hash, recorder.hash());

  // The stream must witness the run's lifecycle: arrivals, placements,
  // finishes, task/job completions and scheduler invocations.
  bool saw[16] = {};
  for (const auto& r : recorder.snapshot()) {
    saw[static_cast<int>(r.type)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kJobArrival)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kCopyPlaced)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kCopyFinished)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kTaskCompleted)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kJobCompleted)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kSchedulerInvoked)]);
  EXPECT_TRUE(saw[static_cast<int>(TraceEv::kPlacementQuery)]);
}

TEST(RecorderSim, RecorderOffIsTheDefaultAndRecordsNothing) {
  const Cluster cluster = Cluster::google_like(20);
  SimConfig config;
  config.seed = 11;
  ASSERT_EQ(config.recorder, nullptr);
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, small_workload(), scheduler);
  EXPECT_EQ(result.stats.recorder_records, 0);
  EXPECT_EQ(result.stats.recorder_hash, 0u);
}

TEST(RecorderSim, RingRunMatchesUnboundedHashAndResult) {
  const Cluster cluster = Cluster::google_like(20);
  const auto jobs = small_workload();
  SimConfig config;
  config.seed = 5;

  Recorder full;
  config.recorder = &full;
  DollyMPScheduler a;
  const SimResult ra = simulate(cluster, config, jobs, a);

  Recorder ring(64);
  config.recorder = &ring;
  DollyMPScheduler b;
  const SimResult rb = simulate(cluster, config, jobs, b);

  // Recording mode must not perturb the simulation...
  EXPECT_EQ(ra.makespan_seconds, rb.makespan_seconds);
  EXPECT_EQ(ra.total_copies_launched, rb.total_copies_launched);
  // ...and the ring's full-stream hash must match the unbounded one.
  EXPECT_EQ(full.hash(), ring.hash());
  EXPECT_EQ(full.records_written(), ring.records_written());
  EXPECT_GT(ring.evictions(), 0u);
  EXPECT_EQ(rb.stats.recorder_evictions, static_cast<long long>(ring.evictions()));
}

// ---- the simulation-event stream --------------------------------------------
//
// Kinds kJobArrival..kServerRepaired are the simulator's own events; these
// checks pin that they account for every aggregate the run reports.

SimConfig traced_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

TEST(EventTrace, DisabledByDefault) {
  const Cluster cluster = Cluster::single({4, 4});
  const SimConfig config = traced_config(1);
  ASSERT_EQ(config.recorder, nullptr);
  const std::vector<JobSpec> jobs = {JobSpec::single_task(0, {1, 1}, 5.0)};
  DollyMPScheduler a;
  const SimResult result = simulate(cluster, config, jobs, a);
  EXPECT_EQ(result.stats.recorder_records, 0);
  EXPECT_EQ(result.stats.recorder_hash, 0u);

  // The same run with a recorder attached does emit the event stream.
  DollyMPScheduler b;
  const auto run = test_support::simulate_recorded(cluster, config, jobs, b);
  EXPECT_EQ(test_support::count_kind(run.stream, TraceEv::kJobCompleted), 1);
  EXPECT_EQ(run.result.makespan_seconds, result.makespan_seconds);
}

TEST(EventTrace, CountsMatchAggregates) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 2}, 20.0, 15.0, i * 10.0));
  }
  DollyMPScheduler scheduler;
  const auto run =
      test_support::simulate_recorded(cluster, traced_config(3), jobs, scheduler);
  const auto count = [&run](TraceEv type) {
    return test_support::count_kind(run.stream, type);
  };

  EXPECT_EQ(count(TraceEv::kJobArrival), 5);
  EXPECT_EQ(count(TraceEv::kJobCompleted), 5);
  EXPECT_EQ(count(TraceEv::kPhaseCompleted), 5);
  EXPECT_EQ(count(TraceEv::kTaskCompleted), run.result.total_tasks_completed);
  // Every launched copy appears exactly once as a placement...
  const long long placements = count(TraceEv::kCopyPlaced) +
                               count(TraceEv::kClonePlaced) +
                               count(TraceEv::kSpeculativePlaced);
  EXPECT_EQ(placements, run.result.total_copies_launched);
  // ...and exactly once as finished or killed.
  EXPECT_EQ(count(TraceEv::kCopyFinished) + count(TraceEv::kCopyKilled),
            run.result.total_copies_launched);
}

TEST(EventTrace, TimeOrdered) {
  const Cluster cluster = Cluster::paper30();
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 5, {1, 2}, 25.0, 20.0, i * 7.0));
  }
  DollyMPScheduler scheduler;
  SimConfig config = traced_config(5);
  config.slot_seconds = 5.0;
  const auto run = test_support::simulate_recorded(cluster, config, jobs, scheduler);
  ASSERT_FALSE(run.stream.empty());
  for (std::size_t i = 1; i < run.stream.size(); ++i) {
    ASSERT_GE(run.stream[i].slot, run.stream[i - 1].slot) << decode(run.stream[i]);
  }
}

TEST(EventTrace, CausalOrderPerTask) {
  const Cluster cluster = Cluster::single({2, 2});
  DollyMPScheduler scheduler;
  const auto run = test_support::simulate_recorded(
      cluster, traced_config(7), {JobSpec::single_task(0, {1, 1}, 8.0)}, scheduler);
  SimTime placed = -1;
  SimTime finished = -1;
  SimTime completed = -1;
  for (const TraceRecord& r : run.stream) {
    if (r.type == TraceEv::kCopyPlaced) placed = r.slot;
    if (r.type == TraceEv::kCopyFinished) finished = r.slot;
    if (r.type == TraceEv::kTaskCompleted) completed = r.slot;
  }
  ASSERT_GE(placed, 0);
  EXPECT_GT(finished, placed);
  EXPECT_EQ(completed, finished);
}

TEST(EventTrace, ClonesAppearAsCloneEvents) {
  const Cluster cluster = Cluster::uniform(4, {4, 4});
  DollyMPScheduler scheduler;  // budget 2, idle cluster -> launch-time clones
  const auto run = test_support::simulate_recorded(
      cluster, traced_config(9), {JobSpec::single_task(0, {1, 1}, 20.0, 15.0)},
      scheduler);
  EXPECT_EQ(test_support::count_kind(run.stream, TraceEv::kClonePlaced), 2);
  EXPECT_EQ(test_support::count_kind(run.stream, TraceEv::kCopyKilled), 2)
      << "both clones are killed when the first copy finishes";
}

TEST(EventTrace, FailureEventsRecorded) {
  const Cluster cluster = Cluster::uniform(4, {8, 16});
  SimConfig config = traced_config(11);
  config.slot_seconds = 5.0;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 120.0;
  config.failures.mean_repair_seconds = 60.0;
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 4, {1, 2}, 40.0, 10.0, i * 30.0));
  }
  DollyMPScheduler scheduler;
  const auto run = test_support::simulate_recorded(cluster, config, jobs, scheduler);
  EXPECT_GT(test_support::count_kind(run.stream, TraceEv::kServerFailed), 0);
  EXPECT_GT(test_support::count_kind(run.stream, TraceEv::kServerRepaired), 0);
}

TEST(EventTrace, KindNames) {
  EXPECT_STREQ(to_string(TraceEv::kJobArrival), "job-arrival");
  EXPECT_STREQ(to_string(TraceEv::kClonePlaced), "clone-placed");
  EXPECT_STREQ(to_string(TraceEv::kServerFailed), "server-failed");
  EXPECT_STREQ(to_string(TraceEv::kJobCompleted), "job-completed");
}

}  // namespace
}  // namespace dollymp
