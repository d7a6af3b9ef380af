// Brute-force placement references and the live oracle that checks the
// PlacementIndex against them on states real runs reach.
//
// PlacementIndex answers every placement query in the simulator.  The
// linear scans it replaced survive as references: best_fit_server and
// first_fit_server over a `const Cluster&` (sched/scheduler.h), plus the
// candidate-set and weighted scans below.  OracleScheduler wraps a policy
// and, after every schedule() call, asks the context's index each query
// for every demand of the workload and compares with the references.
// expect_matches_pinned runs a pinned case (placement_golden_matrix.h)
// under the oracle and requires the linear scan's recorded stream.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/simulator.h"
#include "placement_golden_matrix.h"

namespace dollymp::test_support {

/// Brute-force fitting set: every server that can_fit `demand`, ascending
/// id.
inline std::vector<ServerId> brute_force_candidates(const Cluster& cluster,
                                                    const Resources& demand) {
  std::vector<ServerId> out;
  for (const auto& server : cluster.servers()) {
    if (server.can_fit(demand)) out.push_back(server.id());
  }
  return out;
}

/// DollyMP's straggler-aware pick as a linear scan: the reference for
/// PlacementIndex::weighted_best_fit.
inline ServerId weighted_reference(const Cluster& cluster, const Resources& demand,
                                   const std::vector<double>& multipliers,
                                   const BlockPlacement* boost_block) {
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  for (const auto& server : cluster.servers()) {
    if (!server.can_fit(demand)) continue;
    double score = demand.dot(server.free()) *
                   multipliers[static_cast<std::size_t>(server.id())];
    if (boost_block != nullptr) {
      for (const auto replica : boost_block->replicas) {
        if (replica == server.id()) {
          score *= 1.25;
          break;
        }
      }
    }
    if (score > best_score) {
      best_score = score;
      best = server.id();
    }
  }
  return best;
}

/// Distinct phase demands of a workload, in first-seen order.
inline std::vector<Resources> workload_demands(const std::vector<JobSpec>& jobs) {
  std::vector<Resources> out;
  for (const auto& job : jobs) {
    for (const auto& phase : job.phases) {
      if (std::find(out.begin(), out.end(), phase.demand) == out.end()) {
        out.push_back(phase.demand);
      }
    }
  }
  return out;
}

/// Forwards every call to `inner`.  After each schedule() it checks the
/// context's index against the references for every demand in `demands`:
/// best_fit, first_fit and fitting_candidates.  When `inner` is
/// straggler-aware DollyMP with a live scorer it also checks the index's
/// multiplier mirror against the scorer's weights, and weighted_best_fit
/// with and without the replica boost (the boost block of each phase's
/// next unplaced task).  The oracle's own queries move no decision: they
/// only apply pending index changes early.
class OracleScheduler final : public Scheduler {
 public:
  OracleScheduler(std::unique_ptr<Scheduler> inner, std::vector<Resources> demands)
      : inner_(std::move(inner)),
        dollymp_(dynamic_cast<const DollyMPScheduler*>(inner_.get())),
        demands_(std::move(demands)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void on_job_arrival(SchedulerContext& ctx) override { inner_->on_job_arrival(ctx); }
  void schedule(SchedulerContext& ctx) override {
    inner_->schedule(ctx);
    check(ctx);
  }
  void on_copy_finished(SchedulerContext& ctx, const JobRuntime& job,
                        const PhaseRuntime& phase, const TaskRuntime& task,
                        const CopyRuntime& copy) override {
    inner_->on_copy_finished(ctx, job, phase, task, copy);
  }
  void on_phase_completed(SchedulerContext& ctx, const JobRuntime& job,
                          const PhaseRuntime& phase) override {
    inner_->on_phase_completed(ctx, job, phase);
  }
  void on_job_completed(SchedulerContext& ctx, const JobRuntime& job) override {
    inner_->on_job_completed(ctx, job);
  }
  void on_server_failed(SchedulerContext& ctx, ServerId server) override {
    inner_->on_server_failed(ctx, server);
  }
  void on_server_repaired(SchedulerContext& ctx, ServerId server) override {
    inner_->on_server_repaired(ctx, server);
  }
  void on_copy_fault(SchedulerContext& ctx, const JobRuntime& job, const PhaseRuntime& phase,
                     const TaskRuntime& task, ServerId server) override {
    inner_->on_copy_fault(ctx, job, phase, task, server);
  }
  void on_server_degraded(SchedulerContext& ctx, ServerId server, double factor) override {
    inner_->on_server_degraded(ctx, server, factor);
  }
  void on_server_restored(SchedulerContext& ctx, ServerId server) override {
    inner_->on_server_restored(ctx, server);
  }
  void save_state(StateWriter& w) const override { inner_->save_state(w); }
  void load_state(StateReader& r) override { inner_->load_state(r); }

  /// schedule() calls checked, and those that also checked the weighted
  /// pick.
  [[nodiscard]] long long checks() const { return checks_; }
  [[nodiscard]] long long weighted_checks() const { return weighted_checks_; }
  /// Index queries the oracle itself issued (they count in SimStats).
  [[nodiscard]] long long oracle_queries() const { return oracle_queries_; }

 private:
  void check(SchedulerContext& ctx) {
    PlacementIndex& index = *ctx.placement_index();
    const Cluster& cluster = ctx.cluster();
    const auto queries_before = index.counters().queries;
    const auto slot = ctx.now();
    for (const Resources& demand : demands_) {
      EXPECT_EQ(index.best_fit(demand), best_fit_server(cluster, demand)) << "slot " << slot;
      EXPECT_EQ(index.first_fit(demand), first_fit_server(cluster, demand))
          << "slot " << slot;
      EXPECT_EQ(index.fitting_candidates(demand), brute_force_candidates(cluster, demand))
          << "slot " << slot;
    }
    if (const ServerScorer* scorer = weighted_scorer(cluster)) {
      weights_.resize(cluster.size());
      for (std::size_t i = 0; i < cluster.size(); ++i) {
        const auto id = static_cast<ServerId>(i);
        weights_[i] = scorer->placement_weight(id);
        EXPECT_EQ(index.multiplier(id), weights_[i]) << "slot " << slot << " server " << id;
      }
      for (const Resources& demand : demands_) {
        EXPECT_EQ(index.weighted_best_fit(demand, nullptr),
                  weighted_reference(cluster, demand, weights_, nullptr))
            << "slot " << slot;
      }
      for (const JobRuntime* job : ctx.active_jobs()) {
        for (const PhaseRuntime& phase : job->phases) {
          const TaskRuntime* task = next_unplaced(phase);
          if (task == nullptr) continue;
          EXPECT_EQ(index.weighted_best_fit(task->demand, &task->block),
                    weighted_reference(cluster, task->demand, weights_, &task->block))
              << "slot " << slot << " job " << job->id;
        }
      }
      ++weighted_checks_;
    }
    oracle_queries_ += static_cast<long long>(index.counters().queries - queries_before);
    ++checks_;
  }

  /// The scorer DollyMP's weighted pick reads, when that pick is live.
  [[nodiscard]] const ServerScorer* weighted_scorer(const Cluster& cluster) const {
    if (dollymp_ == nullptr || !dollymp_->config().straggler_aware) return nullptr;
    const ServerScorer* scorer = dollymp_->scorer();
    return scorer != nullptr && scorer->size() == cluster.size() ? scorer : nullptr;
  }

  static const TaskRuntime* next_unplaced(const PhaseRuntime& phase) {
    if (!phase.runnable()) return nullptr;
    for (auto t = static_cast<std::size_t>(std::max(phase.first_unscheduled_hint, 0));
         t < phase.tasks.size(); ++t) {
      if (phase.tasks[t].needs_placement()) return &phase.tasks[t];
    }
    return nullptr;
  }

  std::unique_ptr<Scheduler> inner_;
  const DollyMPScheduler* dollymp_;
  std::vector<Resources> demands_;
  std::vector<double> weights_;
  long long checks_ = 0;
  long long weighted_checks_ = 0;
  long long oracle_queries_ = 0;
};

struct OracleTally {
  long long checks = 0;           ///< schedule() calls checked
  long long weighted_checks = 0;  ///< of which also checked the weighted pick
};

/// Run the pinned case `label` under the oracle and a recorder: the stream
/// must be the one the linear scan recorded, and the oracle must have
/// checked the index on the way.
inline OracleTally expect_matches_pinned(const std::string& label) {
  const placement_golden::Case c = placement_golden::find_case(label);
  const placement_golden::Pinned& pin = placement_golden::pinned(label);
  OracleScheduler oracle(c.factory(), workload_demands(c.jobs));
  Recorder recorder;
  SimConfig config = c.config;
  config.recorder = &recorder;
  const SimResult result = simulate(c.cluster, config, c.jobs, oracle);

  EXPECT_EQ(recorder.hash(), pin.hash) << label;
  EXPECT_EQ(recorder.records_written(), pin.records) << label;
  EXPECT_EQ(result.jobs.size(), c.jobs.size()) << label;
  EXPECT_GT(oracle.checks(), 0) << label;
  const long long policy_queries = result.stats.index_queries - oracle.oracle_queries();
  if (c.queries_index) {
    EXPECT_GT(policy_queries, 0) << label << ": the policy never queried the index";
  } else {
    EXPECT_EQ(policy_queries, 0) << label;
  }
  return {oracle.checks(), oracle.weighted_checks()};
}

}  // namespace dollymp::test_support
