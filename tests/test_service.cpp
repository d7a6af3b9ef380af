// Service-mode acceptance tests (DESIGN.md §4.8): streaming arrival
// determinism, checkpoint/restore bit-identity across the policy × faults
// matrix, corrupted-snapshot rejection, and copy-on-write what-if
// forks that leave the parent's stream untouched.
#include "dollymp/service/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/common/state_io.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/service/arrival_source.h"

namespace dollymp {
namespace {

ArrivalConfig light_arrivals() {
  ArrivalConfig arrivals;
  arrivals.rate_per_second = 0.1;
  arrivals.mean_input_gb = 1.0;
  arrivals.seed = 17;
  return arrivals;
}

ServiceConfig service_config(const std::string& policy, bool faults) {
  ServiceConfig config;
  config.policy = policy;
  config.arrivals = light_arrivals();
  config.sim.seed = 5;
  if (faults) {
    config.sim.failures.enabled = true;
    config.sim.failures.mean_time_to_failure_seconds = 900.0;
    config.sim.failures.mean_repair_seconds = 120.0;
  }
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---- arrival source ---------------------------------------------------------

TEST(ArrivalSource, DeterministicForSameConfig) {
  ArrivalSource a(light_arrivals());
  ArrivalSource b(light_arrivals());
  std::vector<JobSpec> ja;
  std::vector<JobSpec> jb;
  EXPECT_EQ(a.emit_until(2000.0, ja), b.emit_until(2000.0, jb));
  ASSERT_EQ(ja.size(), jb.size());
  ASSERT_GT(ja.size(), 0u);
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].id, jb[i].id);
    EXPECT_DOUBLE_EQ(ja[i].arrival_seconds, jb[i].arrival_seconds);
    EXPECT_EQ(ja[i].phases.size(), jb[i].phases.size());
  }
}

TEST(ArrivalSource, ChunkedEmissionMatchesOneShot) {
  ArrivalSource chunked(light_arrivals());
  ArrivalSource oneshot(light_arrivals());
  std::vector<JobSpec> jc;
  std::vector<JobSpec> jo;
  for (double t = 250.0; t <= 2000.0; t += 250.0) chunked.emit_until(t, jc);
  oneshot.emit_until(2000.0, jo);
  ASSERT_EQ(jc.size(), jo.size());
  for (std::size_t i = 0; i < jc.size(); ++i) {
    EXPECT_EQ(jc[i].id, jo[i].id);
    EXPECT_DOUBLE_EQ(jc[i].arrival_seconds, jo[i].arrival_seconds);
  }
}

TEST(ArrivalSource, ArrivalsRespectHorizonAndOrdering) {
  ArrivalSource source(light_arrivals());
  std::vector<JobSpec> jobs;
  source.emit_until(1500.0, jobs);
  ASSERT_GT(jobs.size(), 1u);
  double prev = -1.0;
  for (const auto& job : jobs) {
    EXPECT_LT(job.arrival_seconds, 1500.0);
    EXPECT_GE(job.arrival_seconds, prev);
    prev = job.arrival_seconds;
  }
  // The pending arrival is exactly the first one past the horizon.
  EXPECT_GE(source.next_arrival_seconds(), 1500.0);
}

TEST(ArrivalSource, SaveLoadReproducesContinuation) {
  ArrivalSource original(light_arrivals());
  std::vector<JobSpec> warmup;
  original.emit_until(1000.0, warmup);

  StateWriter w;
  original.save_state(w);
  const auto bytes = w.finish();

  ArrivalSource restored(light_arrivals());
  StateReader r(bytes);
  restored.load_state(r);
  r.expect_done();

  std::vector<JobSpec> cont_a;
  std::vector<JobSpec> cont_b;
  original.emit_until(3000.0, cont_a);
  restored.emit_until(3000.0, cont_b);
  ASSERT_EQ(cont_a.size(), cont_b.size());
  ASSERT_GT(cont_a.size(), 0u);
  for (std::size_t i = 0; i < cont_a.size(); ++i) {
    EXPECT_EQ(cont_a[i].id, cont_b[i].id);
    EXPECT_DOUBLE_EQ(cont_a[i].arrival_seconds, cont_b[i].arrival_seconds);
  }
}

TEST(ArrivalSource, DiurnalAndFlashModulateRate) {
  ArrivalConfig config = light_arrivals();
  config.diurnal_amplitude = 0.5;
  config.diurnal_period_seconds = 1000.0;
  config.flash_multiplier = 4.0;
  config.flash_start_seconds = 5000.0;
  config.flash_duration_seconds = 100.0;
  ArrivalSource source(config);
  // Peak of the sine (t = period/4): rate * 1.5.
  EXPECT_NEAR(source.rate_at(250.0), 0.1 * 1.5, 1e-12);
  // Trough (t = 3*period/4): rate * 0.5.
  EXPECT_NEAR(source.rate_at(750.0), 0.1 * 0.5, 1e-12);
  // Inside the flash window the multiplier applies on top.
  EXPECT_NEAR(source.rate_at(5000.0), source.rate_at(0.0) * 4.0, 1e-12);
  // Just past the window it is gone.
  EXPECT_NEAR(source.rate_at(5100.0), source.rate_at(100.0), 1e-12);
}

TEST(ArrivalSource, HigherRateYieldsMoreArrivals) {
  ArrivalConfig slow = light_arrivals();
  ArrivalConfig fast = light_arrivals();
  fast.rate_per_second = 1.0;
  std::vector<JobSpec> js;
  std::vector<JobSpec> jf;
  ArrivalSource(slow).emit_until(3000.0, js);
  ArrivalSource(fast).emit_until(3000.0, jf);
  EXPECT_GT(jf.size(), js.size() * 3);
}

// ---- validation -------------------------------------------------------------

TEST(ServiceValidation, ArrivalConfigRejectsNonsense) {
  {
    ArrivalConfig config;
    config.rate_per_second = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.diurnal_amplitude = 1.0;  // must be < 1 or the rate goes negative
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.diurnal_amplitude = 0.3;
    config.diurnal_period_seconds = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.flash_multiplier = 2.0;  // surge without a start/duration window
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ArrivalConfig config;
    config.mean_input_gb = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(ServiceValidation, ServiceConfigRejectsNonsense) {
  {
    ServiceConfig config;
    config.policy = "dollymp10";
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ServiceConfig config;
    config.pump_slots = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    ServiceConfig config;
    config.checkpoint_interval_seconds = 0.0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

TEST(ServiceValidation, UnknownPolicyMessageListsKnownNames) {
  try {
    (void)make_named_policy("dolymp2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dolymp2"), std::string::npos);
    EXPECT_NE(what.find("dollymp0"), std::string::npos);
    EXPECT_NE(what.find("tetris"), std::string::npos);
  }
}

TEST(ServiceValidation, SimConfigCoversModulationKnobs) {
  {
    SimConfig config;
    config.slot_seconds = std::numeric_limits<double>::infinity();
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    SimConfig config;
    config.background.enabled = true;
    config.background.contention_probability = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
  {
    SimConfig config;
    config.locality.enabled = true;
    config.locality.replicas = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
  }
}

// ---- checkpoint/restore matrix ---------------------------------------------

constexpr SimTime kT1 = 120;  // checkpoint point (slots)
constexpr SimTime kT2 = 240;  // comparison horizon (slots)

struct MatrixCell {
  const char* policy;
  bool faults;
};

TEST(ServiceCheckpoint, RestoredRunIsBitIdenticalAcrossMatrix) {
  const std::vector<MatrixCell> cells = {
      {"dollymp2", false}, {"dollymp2", true}, {"drf", false},
      {"drf", true},       {"tetris", false},  {"tetris", true},
  };
  int cell_index = 0;
  for (const auto& cell : cells) {
    SCOPED_TRACE(std::string(cell.policy) + (cell.faults ? "/faults" : "/clean"));
    const ServiceConfig config = service_config(cell.policy, cell.faults);
    const std::string path =
        temp_path("dollymp_service_ckpt_" + std::to_string(cell_index++) + ".ckpt");

    Session parent(Cluster::paper30(), config);
    parent.run_until(kT1);
    parent.checkpoint(path);
    const std::uint64_t hash_at_t1 = parent.stream_hash();
    parent.run_until(kT2);
    ASSERT_GT(parent.totals().jobs_ingested, 0);

    auto restored = Session::restore(Cluster::paper30(), config, path);
    EXPECT_EQ(restored->clock(), kT1);
    EXPECT_EQ(restored->stream_hash(), hash_at_t1);
    restored->run_until(kT2);

    // The continuation from the snapshot replays the uninterrupted future
    // bit for bit: same stream hash, same record count, same totals.
    EXPECT_EQ(restored->stream_hash(), parent.stream_hash());
    EXPECT_EQ(restored->records_written(), parent.records_written());
    EXPECT_EQ(restored->totals().jobs_ingested, parent.totals().jobs_ingested);
    EXPECT_EQ(restored->totals().jobs_completed, parent.totals().jobs_completed);
    EXPECT_DOUBLE_EQ(restored->totals().response_seconds_sum,
                     parent.totals().response_seconds_sum);
    EXPECT_EQ(restored->totals().clones_launched, parent.totals().clones_launched);
  }
}

TEST(ServiceCheckpoint, CheckpointingDoesNotPerturbTheRun) {
  // The stream is a deterministic function of (config, run_until horizon
  // sequence) — ingest chunk boundaries decide whether a job reuses a
  // recycled slot — so both sessions pause at kT1; only one checkpoints.
  const ServiceConfig config = service_config("dollymp2", false);

  Session plain(Cluster::paper30(), config);
  plain.run_until(kT1);
  plain.run_until(kT2);

  Session observed(Cluster::paper30(), config);
  observed.run_until(kT1);
  observed.checkpoint(temp_path("dollymp_service_noop.ckpt"));
  observed.run_until(kT2);

  EXPECT_EQ(plain.stream_hash(), observed.stream_hash());
  EXPECT_EQ(plain.records_written(), observed.records_written());
}

TEST(ServiceCheckpoint, StreamIsDeterministicForSameHorizonSequence) {
  const ServiceConfig config = service_config("dollymp2", true);
  Session a(Cluster::paper30(), config);
  Session b(Cluster::paper30(), config);
  for (SimTime t = 40; t <= kT2; t += 40) {
    a.run_until(t);
    b.run_until(t);
  }
  EXPECT_EQ(a.stream_hash(), b.stream_hash());
  EXPECT_EQ(a.records_written(), b.records_written());
}

TEST(ServiceCheckpoint, RejectsCorruptedAndTruncatedSnapshots) {
  const ServiceConfig config = service_config("dollymp2", false);
  const std::string path = temp_path("dollymp_service_corrupt.ckpt");
  Session session(Cluster::paper30(), config);
  session.run_until(kT1);
  session.checkpoint(path);

  auto bytes = read_state_file(path);
  ASSERT_GT(bytes.size(), 64u);

  {
    auto corrupted = bytes;
    corrupted[corrupted.size() / 2] ^= 0x40;
    const std::string bad = temp_path("dollymp_service_corrupt_bit.ckpt");
    write_state_file(bad, corrupted);
    EXPECT_THROW((void)Session::restore(Cluster::paper30(), config, bad),
                 std::runtime_error);
  }
  {
    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    const std::string bad = temp_path("dollymp_service_truncated.ckpt");
    write_state_file(bad, truncated);
    EXPECT_THROW((void)Session::restore(Cluster::paper30(), config, bad),
                 std::runtime_error);
  }
  {
    EXPECT_THROW(
        (void)Session::restore(Cluster::paper30(), config,
                               temp_path("dollymp_service_missing.ckpt")),
        std::runtime_error);
  }
}

// ---- what-if forks ----------------------------------------------------------

TEST(ServiceFork, SamePolicyForkReplaysParentsFutureAndLeavesParentAlone) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  const std::uint64_t parent_hash_at_fork = parent.stream_hash();
  const std::uint64_t parent_records_at_fork = parent.records_written();

  auto child = parent.fork({});
  EXPECT_EQ(child->clock(), kT1);
  child->run_until(kT2);

  // The parent is untouched by the child's run.
  EXPECT_EQ(parent.clock(), kT1);
  EXPECT_EQ(parent.stream_hash(), parent_hash_at_fork);
  EXPECT_EQ(parent.records_written(), parent_records_at_fork);

  // A same-policy fork IS the parent's own future, bit for bit.
  parent.run_until(kT2);
  EXPECT_EQ(child->stream_hash(), parent.stream_hash());
  EXPECT_EQ(child->records_written(), parent.records_written());
  EXPECT_EQ(child->totals().jobs_completed, parent.totals().jobs_completed);
}

TEST(ServiceFork, PolicySwitchForkDivergesWithoutPerturbingParent) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  const std::uint64_t parent_hash_at_fork = parent.stream_hash();

  Session::ForkOptions options;
  options.policy = "drf";
  auto child = parent.fork(options);
  EXPECT_EQ(child->policy_name(), "drf");
  child->run_until(kT2);
  parent.run_until(kT2);

  EXPECT_EQ(parent.policy_name(), "dollymp2");
  EXPECT_NE(parent.stream_hash(), parent_hash_at_fork);  // parent advanced
  // Different placement policies produce different decision streams.
  EXPECT_NE(child->stream_hash(), parent.stream_hash());
  // Both futures ingest the same arrival stream, though.
  EXPECT_EQ(child->totals().jobs_ingested, parent.totals().jobs_ingested);
}

TEST(ServiceFork, QuarantineForkTakesServersOutOfService) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);

  Session::ForkOptions options;
  options.quarantine = {0, 1, 2};
  auto child = parent.fork(options);
  child->run_until(kT2);
  parent.run_until(kT2);

  // Losing three servers changes the placement stream.
  EXPECT_NE(child->stream_hash(), parent.stream_hash());
  EXPECT_EQ(child->totals().jobs_ingested, parent.totals().jobs_ingested);
}

TEST(ServiceFork, QuarantineOutOfRangeThrows) {
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(8);

  Session::ForkOptions options;
  options.quarantine = {100000};
  EXPECT_THROW((void)parent.fork(options), std::invalid_argument);
}

TEST(ServiceFork, ForkSurvivesParentSegmentReaping) {
  // The child holds the parent's spec chunks via shared_ptr, so even after
  // the parent recycles every job of a chunk the child's jobs stay valid.
  const ServiceConfig config = service_config("dollymp2", false);
  Session parent(Cluster::paper30(), config);
  parent.run_until(kT1);
  auto child = parent.fork({});
  // Drain the parent far enough that its early chunks are freed.
  parent.run_until(kT2 * 4);
  child->run_until(kT2);
  EXPECT_GT(child->totals().jobs_completed, 0);
}

TEST(ServiceFork, ParentAndForkAdvanceConcurrently) {
  // A fork shares its parent's spec chunks through atomic reference counts.
  // Advancing both on two pool workers, as dollymp_service does, must give
  // each the stream it gets on its own.  The fork comes after the parent
  // has recycled slots, and the parent frees shared chunks during the run.
  const ServiceConfig config = service_config("dollymp2", false);
  constexpr SimTime kFork = kT2 * 4;
  constexpr SimTime kEnd = kT2 * 8;
  Session::ForkOptions options;
  options.policy = "drf";

  std::uint64_t serial_parent = 0;
  std::uint64_t serial_child = 0;
  {
    Session parent(Cluster::paper30(), config);
    parent.run_until(kFork);
    auto child = parent.fork(options);
    parent.run_until(kEnd);
    child->run_until(kEnd);
    serial_parent = parent.stream_hash();
    serial_child = child->stream_hash();
  }

  Session parent(Cluster::paper30(), config);
  parent.run_until(kFork);
  ASSERT_LT(parent.specs_retained(), static_cast<std::size_t>(parent.totals().jobs_ingested))
      << "no spec chunk was freed before the fork";
  auto child = parent.fork(options);
  ThreadPool pool(2);
  auto parent_run = pool.submit([&parent] { parent.run_until(kEnd); });
  auto child_run = pool.submit([&child] { child->run_until(kEnd); });
  parent_run.get();
  child_run.get();
  EXPECT_EQ(parent.stream_hash(), serial_parent);
  EXPECT_EQ(child->stream_hash(), serial_child);
}

// ---- memory bound -----------------------------------------------------------

TEST(ServiceMemory, RetainedSpecsTrackLiveJobsNotTotalArrivals) {
  ServiceConfig config = service_config("dollymp2", false);
  config.arrivals.rate_per_second = 0.2;
  Session session(Cluster::paper30(), config);
  std::size_t peak_retained = 0;
  for (SimTime t = 200; t <= 2400; t += 200) {
    session.run_until(t);
    peak_retained = std::max(peak_retained, session.specs_retained());
  }
  const auto ingested = session.totals().jobs_ingested;
  ASSERT_GT(ingested, 100);
  // Retention is bounded by live jobs plus one pump chunk of granularity —
  // far below total arrivals once the stream is several chunks long.
  EXPECT_LT(peak_retained, static_cast<std::size_t>(ingested));
  EXPECT_GT(session.totals().jobs_completed, 0);
}

}  // namespace
}  // namespace dollymp
