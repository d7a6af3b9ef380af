#include "dollymp/workload/apps.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dollymp/workload/arrivals.h"

namespace dollymp {

namespace {
int blocks_for(double input_gb, double block_gb) {
  if (input_gb <= 0.0) throw std::invalid_argument("apps: input_gb must be > 0");
  if (block_gb <= 0.0) throw std::invalid_argument("apps: block_gb must be > 0");
  return std::max(1, static_cast<int>(std::ceil(input_gb / block_gb)));
}
}  // namespace

JobSpec make_wordcount(JobId id, double input_gb, double arrival_seconds,
                       const AppConfig& config) {
  const int maps = blocks_for(input_gb, config.block_gb);
  const int reduces =
      std::max(1, static_cast<int>(std::lround(maps * config.reduce_fraction)));
  const double map_theta = config.map_theta_per_gb * config.block_gb * 4.0;
  const double reduce_theta = map_theta * 1.5;

  JobSpec job;
  job.id = id;
  job.name = "wordcount-" + std::to_string(id);
  job.app = "wordcount";
  job.arrival_seconds = arrival_seconds;

  PhaseSpec map;
  map.name = "map";
  map.task_count = maps;
  map.demand = config.map_demand;
  map.theta_seconds = map_theta;
  map.sigma_seconds = config.straggler_cv * map_theta;
  job.phases.push_back(map);

  PhaseSpec reduce;
  reduce.name = "reduce";
  reduce.task_count = reduces;
  reduce.demand = config.reduce_demand;
  reduce.theta_seconds = reduce_theta;
  reduce.sigma_seconds = config.straggler_cv * reduce_theta;
  reduce.parents = {0};
  job.phases.push_back(reduce);

  job.validate();
  return job;
}

JobSpec make_pagerank(JobId id, double input_gb, int iterations, double arrival_seconds,
                      const AppConfig& config) {
  if (iterations < 1) throw std::invalid_argument("make_pagerank: iterations >= 1");
  const int partitions = blocks_for(input_gb, config.block_gb);
  const double compute_theta = config.map_theta_per_gb * config.block_gb * 3.0;

  JobSpec job;
  job.id = id;
  job.name = "pagerank-" + std::to_string(id);
  job.app = "pagerank";
  job.arrival_seconds = arrival_seconds;

  PhaseSpec init;
  init.name = "partition";
  init.task_count = partitions;
  init.demand = config.map_demand;
  init.theta_seconds = compute_theta * 0.6;
  init.sigma_seconds = config.straggler_cv * init.theta_seconds;
  job.phases.push_back(init);

  PhaseIndex previous = 0;
  for (int it = 0; it < iterations; ++it) {
    PhaseSpec compute;
    compute.name = "compute-" + std::to_string(it);
    compute.task_count = partitions;
    compute.demand = config.map_demand;
    compute.theta_seconds = compute_theta;
    compute.sigma_seconds = config.straggler_cv * compute_theta;
    compute.parents = {previous};
    job.phases.push_back(compute);
    previous = static_cast<PhaseIndex>(job.phases.size() - 1);

    PhaseSpec aggregate;
    aggregate.name = "aggregate-" + std::to_string(it);
    aggregate.task_count = std::max(1, partitions / 8);
    aggregate.demand = config.reduce_demand;
    aggregate.theta_seconds = compute_theta * 0.5;
    aggregate.sigma_seconds = config.straggler_cv * aggregate.theta_seconds;
    aggregate.parents = {previous};
    job.phases.push_back(aggregate);
    previous = static_cast<PhaseIndex>(job.phases.size() - 1);
  }

  job.validate();
  return job;
}

JobSpec make_terasort(JobId id, double input_gb, double arrival_seconds,
                      const AppConfig& config) {
  const int partitions = blocks_for(input_gb, config.block_gb);
  const double base_theta = config.map_theta_per_gb * config.block_gb * 4.0;

  JobSpec job;
  job.id = id;
  job.name = "terasort-" + std::to_string(id);
  job.app = "terasort";
  job.arrival_seconds = arrival_seconds;

  PhaseSpec sample;
  sample.name = "sample";
  sample.task_count = std::max(1, partitions / 16);
  sample.demand = config.map_demand;
  sample.theta_seconds = base_theta * 0.3;
  sample.sigma_seconds = config.straggler_cv * sample.theta_seconds;
  job.phases.push_back(sample);

  PhaseSpec sort;
  sort.name = "partition-sort";
  sort.task_count = partitions;
  // Memory-heavy: spill buffers roughly double the mapper footprint.
  sort.demand = {config.map_demand.cpu(), config.map_demand.mem() * 2.0};
  sort.theta_seconds = base_theta * 1.2;
  sort.sigma_seconds = config.straggler_cv * sort.theta_seconds;
  sort.parents = {0};
  job.phases.push_back(sort);

  PhaseSpec merge;
  merge.name = "merge";
  merge.task_count = std::max(1, partitions / 4);
  merge.demand = {config.reduce_demand.cpu() * 2.0, config.reduce_demand.mem()};
  merge.theta_seconds = base_theta;
  merge.sigma_seconds = config.straggler_cv * merge.theta_seconds;
  merge.parents = {1};
  job.phases.push_back(merge);

  job.validate();
  return job;
}

JobSpec make_sql_join(JobId id, double left_gb, double right_gb, double arrival_seconds,
                      const AppConfig& config) {
  const int left_parts = blocks_for(left_gb, config.block_gb);
  const int right_parts = blocks_for(right_gb, config.block_gb);
  const double scan_theta = config.map_theta_per_gb * config.block_gb * 2.0;

  JobSpec job;
  job.id = id;
  job.name = "sqljoin-" + std::to_string(id);
  job.app = "sqljoin";
  job.arrival_seconds = arrival_seconds;

  PhaseSpec left;
  left.name = "scan-left";
  left.task_count = left_parts;
  left.demand = config.map_demand;
  left.theta_seconds = scan_theta;
  left.sigma_seconds = config.straggler_cv * scan_theta;
  job.phases.push_back(left);

  PhaseSpec right;
  right.name = "scan-right";
  right.task_count = right_parts;
  right.demand = config.map_demand;
  right.theta_seconds = scan_theta;
  right.sigma_seconds = config.straggler_cv * scan_theta;
  job.phases.push_back(right);

  PhaseSpec join;
  join.name = "join";
  join.task_count = std::max(1, (left_parts + right_parts) / 4);
  join.demand = {config.reduce_demand.cpu(), config.reduce_demand.mem() * 1.5};
  join.theta_seconds = scan_theta * 1.5;
  join.sigma_seconds = config.straggler_cv * join.theta_seconds;
  join.parents = {0, 1};  // the diamond: waits on both scans
  job.phases.push_back(join);

  PhaseSpec aggregate;
  aggregate.name = "aggregate";
  aggregate.task_count = std::max(1, join.task_count / 4);
  aggregate.demand = config.reduce_demand;
  aggregate.theta_seconds = scan_theta * 0.6;
  aggregate.sigma_seconds = config.straggler_cv * aggregate.theta_seconds;
  aggregate.parents = {2};
  job.phases.push_back(aggregate);

  job.validate();
  return job;
}

JobSpec make_mltrain(JobId id, double arrival_seconds, const MlTrainConfig& config) {
  if (config.world_size < 1) throw std::invalid_argument("make_mltrain: world_size >= 1");
  if (config.steps < 1) throw std::invalid_argument("make_mltrain: steps >= 1");

  JobSpec job;
  job.id = id;
  job.name = "mltrain-" + std::to_string(id);
  job.app = "mltrain";
  job.arrival_seconds = arrival_seconds;

  PhaseSpec setup;
  setup.name = "setup";
  setup.task_count = 1;
  // CPU-only: dataset download and graph compilation hold no GPU.
  setup.demand = {2.0, 8.0};
  setup.theta_seconds = config.setup_theta_seconds;
  setup.sigma_seconds = config.straggler_cv * setup.theta_seconds;
  job.phases.push_back(setup);

  PhaseIndex previous = 0;
  for (int s = 0; s < config.steps; ++s) {
    PhaseSpec step;
    step.name = "step-" + std::to_string(s);
    step.task_count = config.world_size;
    step.demand = config.rank_demand;
    step.theta_seconds = config.step_theta_seconds;
    step.sigma_seconds = config.straggler_cv * config.step_theta_seconds;
    step.gang = true;
    step.parents = {previous};
    job.phases.push_back(step);
    previous = static_cast<PhaseIndex>(job.phases.size() - 1);
  }

  job.validate();
  return job;
}

void append_mltrain_mix(std::vector<JobSpec>& jobs, int count,
                        double analytics_gap_seconds, std::uint64_t seed) {
  JobId next_id = 0;
  for (const auto& job : jobs) next_id = std::max(next_id, job.id + 1);
  std::vector<JobSpec> trainers;
  trainers.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int k = 0; k < count; ++k) trainers.push_back(make_mltrain(next_id + k));
  assign_poisson_arrivals(trainers, analytics_gap_seconds * 4.0, seed);
  jobs.insert(jobs.end(), trainers.begin(), trainers.end());
}

}  // namespace dollymp
