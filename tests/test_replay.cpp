// Replay-divergence verifier tests.
//
// The determinism matrix is the subsystem's reason to exist: every
// scheduler policy, with and without failure injection, must replay
// bit-identically from the same seed.  The injection tests then prove the verifier's diagnostic value:
// a deliberately reordered / mutated / truncated stream is pinpointed at
// the exact first divergent record, decoded on both sides.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dollymp/obs/replay.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/workload/arrivals.h"
#include "placement_oracle.h"

namespace dollymp {
namespace {

std::vector<JobSpec> matrix_workload(unsigned seed) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 8, {1, 1}, 20.0, 30.0));
  }
  assign_poisson_arrivals(jobs, 15.0, seed + 100);
  return jobs;
}

struct PolicyEntry {
  const char* name;
  SchedulerFactory factory;
};

std::vector<PolicyEntry> all_policies() {
  std::vector<PolicyEntry> policies;
  policies.push_back({"capacity", [] { return std::make_unique<CapacityScheduler>(); }});
  policies.push_back({"drf", [] { return std::make_unique<DrfScheduler>(); }});
  policies.push_back({"tetris", [] { return std::make_unique<TetrisScheduler>(); }});
  policies.push_back({"carbyne", [] { return std::make_unique<CarbyneScheduler>(); }});
  policies.push_back({"srpt", [] {
                        SimplePriorityConfig config;
                        config.rule = SimplePriorityRule::kSrpt;
                        return std::make_unique<SimplePriorityScheduler>(config);
                      }});
  policies.push_back({"svf", [] {
                        SimplePriorityConfig config;
                        config.rule = SimplePriorityRule::kSvf;
                        return std::make_unique<SimplePriorityScheduler>(config);
                      }});
  policies.push_back({"hopper", [] { return std::make_unique<HopperScheduler>(); }});
  policies.push_back({"dollymp0", [] {
                        DollyMPConfig config;
                        config.clone_budget = 0;
                        return std::make_unique<DollyMPScheduler>(config);
                      }});
  policies.push_back({"dollymp2", [] {
                        DollyMPConfig config;
                        config.clone_budget = 2;
                        return std::make_unique<DollyMPScheduler>(config);
                      }});
  return policies;
}

// The tentpole guarantee: same seed, same stream — for every policy, with
// and without failure injection.  (The name keeps its old "Index" suffix
// from when the matrix also crossed a linear-scan placement path.)
TEST(Replay, DeterminismMatrixEveryPolicyFailuresIndex) {
  const Cluster cluster = Cluster::paper30();
  const auto jobs = matrix_workload(9);
  for (const auto& policy : all_policies()) {
    for (const bool failures : {false, true}) {
      SimConfig config;
      config.slot_seconds = 1.0;
      config.seed = 42;
      config.failures.enabled = failures;
      config.failures.mean_time_to_failure_seconds = 400.0;
      config.failures.mean_repair_seconds = 60.0;
      const DivergenceReport report = verify_replay(cluster, config, jobs, policy.factory);
      EXPECT_TRUE(report.identical)
          << policy.name << " failures=" << failures << "\n" << report.to_string();
      EXPECT_GT(report.records_a, 0u) << policy.name;
      EXPECT_EQ(report.hash_a, report.hash_b) << policy.name;
    }
  }
}

// The placement index must not just be internally deterministic but
// reproduce the stream the linear-scan placement path recorded for the
// same run (tests/placement_golden_matrix.h).
TEST(Replay, PlacementIndexStreamMatchesLinearScan) {
  test_support::expect_matches_pinned("replay/DollyMPSeed7");
}

std::vector<TraceRecord> reference_stream() {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 12; ++i) {
    TraceRecord r;
    r.seq = static_cast<std::uint64_t>(i);
    r.slot = i / 3;
    r.type = static_cast<TraceEv>(i % 5);
    r.job = i % 4;
    r.task = i;
    records.push_back(r);
  }
  return records;
}

TEST(Replay, InjectedReorderingPinpointedAtExactRecord) {
  const auto a = reference_stream();
  auto b = a;
  std::swap(b[5], b[6]);  // adjacent transposition deep in the stream
  const DivergenceReport report = compare_streams(a, b);
  ASSERT_FALSE(report.identical);
  EXPECT_NE(report.hash_a, report.hash_b);
  EXPECT_EQ(report.first_divergence, 5u);  // earlier records certified equal
  EXPECT_EQ(report.lhs, decode(a[5]));
  EXPECT_EQ(report.rhs, decode(a[6]));  // b[5] is a's sixth record
  const std::string text = report.to_string();
  EXPECT_NE(text.find("DIVERGED"), std::string::npos);
  EXPECT_NE(text.find("index 5"), std::string::npos);
  EXPECT_NE(text.find("A: "), std::string::npos);
  EXPECT_NE(text.find("B: "), std::string::npos);
}

TEST(Replay, SingleFieldMutationPinpointed) {
  const auto a = reference_stream();
  auto b = a;
  b[8].server = 17;  // one flipped placement decision
  const DivergenceReport report = compare_streams(a, b);
  ASSERT_FALSE(report.identical);
  EXPECT_EQ(report.first_divergence, 8u);
  EXPECT_NE(report.lhs, report.rhs);
}

TEST(Replay, TruncatedStreamReportsEndOfStream) {
  const auto a = reference_stream();
  auto b = a;
  b.resize(9);  // strict prefix
  const DivergenceReport report = compare_streams(a, b);
  ASSERT_FALSE(report.identical);
  EXPECT_EQ(report.first_divergence, 9u);
  EXPECT_EQ(report.records_a, 12u);
  EXPECT_EQ(report.records_b, 9u);
  EXPECT_EQ(report.lhs, decode(a[9]));
  EXPECT_EQ(report.rhs, "<end of stream>");
}

TEST(Replay, IdenticalStreamsReportIdentical) {
  const auto a = reference_stream();
  const DivergenceReport report = compare_streams(a, a);
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.hash_a, report.hash_b);
  EXPECT_EQ(report.records_a, 12u);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("identical"), std::string::npos);
  EXPECT_NE(text.find("12 records"), std::string::npos);
}

TEST(Replay, VerifyAgainstCapturedLogMatchesLiveRun) {
  const Cluster cluster = Cluster::paper30();
  const auto jobs = matrix_workload(2);
  SimConfig config;
  config.slot_seconds = 1.0;
  config.seed = 13;
  const SchedulerFactory factory = [] { return std::make_unique<DollyMPScheduler>(); };

  // Capture a reference stream, then verify a fresh run against it.
  Recorder reference;
  {
    SimConfig run = config;
    run.recorder = &reference;
    auto sched = factory();
    (void)simulate(cluster, run, jobs, *sched);
  }
  const DivergenceReport same =
      verify_against_log(cluster, config, jobs, factory, reference.snapshot());
  EXPECT_TRUE(same.identical) << same.to_string();

  // A different seed must diverge, and early: the event streams part ways
  // as soon as arrivals or scheduling differ.
  SimConfig other = config;
  other.seed = 14;
  const DivergenceReport diff =
      verify_against_log(cluster, other, jobs, factory, reference.snapshot());
  EXPECT_FALSE(diff.identical);
  EXPECT_FALSE(diff.lhs.empty());
  EXPECT_FALSE(diff.rhs.empty());
}

}  // namespace
}  // namespace dollymp
