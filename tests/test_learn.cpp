// Online straggler-aware server scoring (learn/server_scorer.h) and its
// integration into DollyMP (the paper's Section 8 future work).
#include <gtest/gtest.h>

#include "dollymp/learn/server_scorer.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"

namespace dollymp {
namespace {

TEST(ServerScorer, ColdServersAreNeutral) {
  const ServerScorer scorer(4);
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_NEAR(scorer.estimated_slowdown(s), 1.0, 1e-9);
    EXPECT_EQ(scorer.samples(s), 0u);
    EXPECT_NEAR(scorer.placement_weight(s), 1.0, 1e-9);
  }
}

TEST(ServerScorer, ConvergesToTrueSlowdown) {
  ServerScorer scorer(2);
  for (int i = 0; i < 100; ++i) {
    scorer.observe(0, 10.0, 30.0);  // consistently 3x slow
    scorer.observe(1, 10.0, 10.0);  // nominal
  }
  EXPECT_NEAR(scorer.estimated_slowdown(0), 3.0, 0.1);
  EXPECT_NEAR(scorer.estimated_slowdown(1), 1.0, 0.05);
  EXPECT_GT(scorer.placement_weight(1), scorer.placement_weight(0));
}

TEST(ServerScorer, ForgetsOldContention) {
  ServerScorer scorer(1);
  for (int i = 0; i < 50; ++i) scorer.observe(0, 10.0, 40.0);
  const double contended = scorer.estimated_slowdown(0);
  EXPECT_GT(contended, 2.5);
  // Contention passes; the EWMA must recover.
  for (int i = 0; i < 50; ++i) scorer.observe(0, 10.0, 10.0);
  EXPECT_LT(scorer.estimated_slowdown(0), 1.2);
}

TEST(ServerScorer, PriorDampensFirstSamples) {
  ServerScorer scorer(1);
  scorer.observe(0, 10.0, 80.0);  // one 8x outlier
  // One sample against a pseudo-weight of 3 must not swing the estimate
  // anywhere near 8.
  EXPECT_LT(scorer.estimated_slowdown(0), 3.5);
  EXPECT_EQ(scorer.samples(0), 1u);
}

TEST(ServerScorer, ClampsAndIgnoresJunk) {
  ServerScorer scorer(1);
  scorer.observe(0, 10.0, 1e9);  // absurd ratio clamps at max_slowdown
  EXPECT_LE(scorer.estimated_slowdown(0), 16.0);
  const double before = scorer.estimated_slowdown(0);
  scorer.observe(0, 0.0, 10.0);   // ignored
  scorer.observe(0, 10.0, -1.0);  // ignored
  EXPECT_DOUBLE_EQ(scorer.estimated_slowdown(0), before);
  EXPECT_EQ(scorer.samples(0), 1u);
}

TEST(ServerScorer, BoundsChecking) {
  ServerScorer scorer(2);
  EXPECT_THROW(scorer.observe(2, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(scorer.observe(-1, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW((void)scorer.estimated_slowdown(5), std::out_of_range);
  EXPECT_THROW((void)scorer.samples(5), std::out_of_range);
}

TEST(ServerScorer, ConfigValidation) {
  ServerScorerConfig bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(ServerScorer(1, bad), std::invalid_argument);
  ServerScorerConfig bad2;
  bad2.max_slowdown = 0.5;
  EXPECT_THROW(ServerScorer(1, bad2), std::invalid_argument);
}

TEST(ServerScorer, ResetClearsState) {
  ServerScorer scorer(1);
  for (int i = 0; i < 20; ++i) scorer.observe(0, 10.0, 50.0);
  scorer.reset();
  EXPECT_NEAR(scorer.estimated_slowdown(0), 1.0, 1e-9);
  EXPECT_EQ(scorer.samples(0), 0u);
}

// ---- integration: DollyMP learns to avoid a chronically slow server -------

Cluster cluster_with_lemon() {
  // One "lemon" running at 1/5 speed, listed first so blind best-fit
  // placement regularly lands work on it, plus three healthy servers.
  Cluster cluster;
  cluster.add_server(ServerSpec{{8, 16}, 0.2, 0});
  cluster.add_server(ServerSpec{{8, 16}, 1.0, 0});
  cluster.add_server(ServerSpec{{8, 16}, 1.0, 0});
  cluster.add_server(ServerSpec{{8, 16}, 1.0, 0});
  return cluster;
}

std::vector<JobSpec> steady_stream(int count) {
  // 10 tasks per job: enough that every server (including the lemon)
  // receives work under blind placement.
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 10, {2, 4}, 30.0, 10.0, i * 20.0));
  }
  return jobs;
}

SimConfig lemon_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

TEST(StragglerAware, LearnsTheLemonServer) {
  const Cluster cluster = cluster_with_lemon();
  DollyMPConfig dc;
  dc.straggler_aware = true;
  DollyMPScheduler scheduler(dc);
  const SimResult result = simulate(cluster, lemon_config(3), steady_stream(40), scheduler);
  (void)result;
  ASSERT_NE(scheduler.scorer(), nullptr);
  const ServerScorer& scorer = *scheduler.scorer();
  // The lemon (server 0) must have a clearly higher slowdown estimate than
  // every healthy server.
  ASSERT_GT(scorer.samples(0), 0u) << "the lemon must have received some work";
  for (ServerId s = 1; s < 4; ++s) {
    EXPECT_GT(scorer.estimated_slowdown(0), scorer.estimated_slowdown(s) * 1.5)
        << "server " << s;
  }
}

TEST(StragglerAware, ImprovesFlowtimeWithLemonServer) {
  const Cluster cluster = cluster_with_lemon();
  double aware_total = 0.0;
  double blind_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    DollyMPConfig aware_cfg;
    aware_cfg.straggler_aware = true;
    DollyMPScheduler aware(aware_cfg);
    DollyMPScheduler blind;
    const auto jobs = steady_stream(40);
    aware_total += simulate(cluster, lemon_config(seed), jobs, aware).total_flowtime();
    blind_total += simulate(cluster, lemon_config(seed), jobs, blind).total_flowtime();
  }
  EXPECT_LT(aware_total, blind_total)
      << "learned placement must beat blind placement with a lemon server";
}

TEST(StragglerAware, ScorerAbsentWhenDisabled) {
  const Cluster cluster = cluster_with_lemon();
  DollyMPScheduler scheduler;  // default: straggler_aware = false
  (void)simulate(cluster, lemon_config(1), steady_stream(5), scheduler);
  EXPECT_EQ(scheduler.scorer(), nullptr);
}

}  // namespace
}  // namespace dollymp
