#include "dollymp/common/experiment.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "dollymp/sim/simulator.h"

namespace dollymp {

namespace {

/// Everything one replication contributes to its cell, extracted on the
/// worker so the (potentially large) SimResult dies there.
struct ReplicationSample {
  double total_flowtime = 0.0;
  double mean_flowtime = 0.0;
  double makespan = 0.0;
  double cloned_task_fraction = 0.0;
  std::vector<double> flowtimes;      ///< per job, job order
  std::vector<double> running_times;  ///< per job, job order
};

ReplicationSample run_one(const SweepSpec& spec, std::size_t policy,
                          const SweepFaultPreset& preset, std::uint64_t seed) {
  SimConfig config = spec.base;
  config.seed = seed;
  config.failures = preset.failures;
  config.faults = preset.faults;
  config.recorder = nullptr;  // replications must not share a recorder
  const auto scheduler = spec.policies[policy].factory();
  const SimResult result = simulate(spec.cluster, config, spec.jobs, *scheduler);

  ReplicationSample sample;
  sample.total_flowtime = result.total_flowtime();
  sample.mean_flowtime = result.mean_flowtime();
  sample.makespan = result.makespan_seconds;
  sample.cloned_task_fraction = result.cloned_task_fraction();
  sample.flowtimes.reserve(result.jobs.size());
  sample.running_times.reserve(result.jobs.size());
  for (const auto& job : result.jobs) {
    sample.flowtimes.push_back(job.flowtime());
    sample.running_times.push_back(job.running_time());
  }
  return sample;
}

/// Shortest round-trip-exact decimal form; deterministic for equal doubles,
/// so equal sweeps render equal JSON bytes.
std::string fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == value) return shorter;
  }
  return buf;
}

void append_stats(std::string& out, const char* name, const RunningStats& stats) {
  const MeanCi ci = mean_ci95(stats);
  out += "\"";
  out += name;
  out += "\":{\"n\":" + std::to_string(ci.n) + ",\"mean\":" + fmt(ci.mean) +
         ",\"sd\":" + fmt(ci.sd) + ",\"ci95_lo\":" + fmt(ci.lo) +
         ",\"ci95_hi\":" + fmt(ci.hi) + "}";
}

void append_cdf(std::string& out, const char* name, const Cdf& cdf) {
  out += "\"";
  out += name;
  out += "\":{\"count\":" + std::to_string(cdf.count()) + ",\"quantiles\":[";
  bool first = true;
  for (const auto& [q, v] : cdf.curve(20)) {
    if (!first) out += ",";
    first = false;
    out += "[" + fmt(q) + "," + fmt(v) + "]";
  }
  out += "]}";
}

}  // namespace

std::vector<SimResult> run_comparison(const ComparisonSpec& spec,
                                      const std::vector<ComparisonEntry>& entries,
                                      ThreadPool* pool) {
  const auto run_entry = [&](std::size_t i) {
    const ComparisonEntry& entry = entries[i];
    const auto scheduler = entry.factory();
    if (!scheduler) throw std::invalid_argument("run_comparison: factory returned null");
    SimResult result = simulate(spec.cluster, spec.config, spec.jobs, *scheduler);
    result.scheduler = entry.name;
    return result;
  };
  if (pool != nullptr) return parallel_map(*pool, entries.size(), run_entry);
  std::vector<SimResult> results;
  results.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) results.push_back(run_entry(i));
  return results;
}

SweepFaultPreset make_fault_preset(const std::string& name) {
  // The one fault-class table: the sweep's presets and the chaos harness's
  // --classes (tools/dollymp_chaos.cpp) both resolve here.  Rates are
  // aggressive relative to typical task durations so every preset actually
  // exercises its class.
  SweepFaultPreset preset;
  preset.name = name;
  if (name == "healthy") return preset;
  bool known = false;
  if (name == "crash" || name == "all") {
    preset.failures.enabled = true;
    preset.failures.mean_time_to_failure_seconds = 600.0;
    preset.failures.mean_repair_seconds = 120.0;
    known = true;
  }
  if (name == "rack" || name == "all") {
    preset.faults.rack.enabled = true;
    preset.faults.rack.time_to_failure.mean_seconds = 1500.0;
    preset.faults.rack.repair.mean_seconds = 200.0;
    known = true;
  }
  if (name == "failslow" || name == "all") {
    preset.faults.fail_slow.enabled = true;
    preset.faults.fail_slow.slowdown_factor = 3.0;
    preset.faults.fail_slow.time_to_onset.mean_seconds = 600.0;
    preset.faults.fail_slow.recovery.mean_seconds = 300.0;
    known = true;
  }
  if (name == "copyfault" || name == "all") {
    preset.faults.copy.enabled = true;
    preset.faults.copy.inter_fault.mean_seconds = 120.0;
    known = true;
  }
  if (!known) {
    throw std::invalid_argument(
        "make_fault_preset: unknown preset '" + name +
        "' (known: healthy, crash, rack, failslow, copyfault, all)");
  }
  return preset;
}

MeanCi mean_ci95(const RunningStats& stats) {
  MeanCi ci;
  ci.n = stats.count();
  ci.mean = stats.mean();
  ci.sd = stats.stddev();
  if (ci.n >= 2) {
    const double half = 1.96 * ci.sd / std::sqrt(static_cast<double>(ci.n));
    ci.lo = ci.mean - half;
    ci.hi = ci.mean + half;
  } else {
    ci.lo = ci.mean;
    ci.hi = ci.mean;
  }
  return ci;
}

SweepResult run_sweep(const SweepSpec& spec, ThreadPool* pool) {
  if (spec.policies.empty()) {
    throw std::invalid_argument("run_sweep: spec.policies must be non-empty");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.seed} : spec.seeds;
  std::vector<SweepFaultPreset> presets = spec.fault_presets;
  if (presets.empty()) {
    // Pass-through preset: keep whatever the base config already enables.
    presets.push_back(SweepFaultPreset{"base", spec.base.failures, spec.base.faults});
  }

  // Grid order is the determinism anchor: replication r is
  // (policy, preset, seed) in policy-major / preset-middle / seed-minor
  // order, and every aggregate below folds samples in exactly this order
  // whatever the execution interleaving was.
  const std::size_t total = spec.policies.size() * presets.size() * seeds.size();
  const auto cell_of = [&](std::size_t r) {
    return std::pair<std::size_t, std::size_t>{r / seeds.size(), r % seeds.size()};
  };
  const auto run_index = [&](std::size_t r) {
    const auto [cell, seed_idx] = cell_of(r);
    return run_one(spec, cell / presets.size(), presets[cell % presets.size()],
                   seeds[seed_idx]);
  };

  std::vector<ReplicationSample> samples;
  if (pool != nullptr && pool->size() >= 2) {
    samples = parallel_map(*pool, total, run_index);
  } else {
    samples.reserve(total);
    for (std::size_t r = 0; r < total; ++r) samples.push_back(run_index(r));
  }

  SweepResult result;
  result.replications = total;
  result.cells.resize(spec.policies.size() * presets.size());
  for (std::size_t r = 0; r < total; ++r) {
    const auto [cell_idx, seed_idx] = cell_of(r);
    (void)seed_idx;
    SweepCell& cell = result.cells[cell_idx];
    if (cell.replications == 0) {
      cell.policy = spec.policies[cell_idx / presets.size()].name;
      cell.fault = presets[cell_idx % presets.size()].name;
    }
    const ReplicationSample& sample = samples[r];
    ++cell.replications;
    cell.total_flowtime_seconds.add(sample.total_flowtime);
    cell.mean_flowtime_seconds.add(sample.mean_flowtime);
    cell.makespan_seconds.add(sample.makespan);
    cell.cloned_task_fraction.add(sample.cloned_task_fraction);
    for (const double flow : sample.flowtimes) cell.flowtime_seconds.add(flow);
    for (const double run : sample.running_times) cell.running_time_seconds.add(run);
  }
  result.wall_clock_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

std::string render_sweep_json(const SweepResult& result) {
  std::string out = "{\"schema\":\"dollymp-sweep-v1\",\"replications\":" +
                    std::to_string(result.replications) + ",\"cells\":[";
  bool first_cell = true;
  for (const auto& cell : result.cells) {
    if (!first_cell) out += ",";
    first_cell = false;
    out += "{\"policy\":\"" + cell.policy + "\",\"fault\":\"" + cell.fault +
           "\",\"replications\":" + std::to_string(cell.replications) + ",";
    append_stats(out, "total_flowtime_seconds", cell.total_flowtime_seconds);
    out += ",";
    append_stats(out, "mean_flowtime_seconds", cell.mean_flowtime_seconds);
    out += ",";
    append_stats(out, "makespan_seconds", cell.makespan_seconds);
    out += ",";
    append_stats(out, "cloned_task_fraction", cell.cloned_task_fraction);
    out += ",";
    append_cdf(out, "flowtime_cdf", cell.flowtime_seconds);
    out += ",";
    append_cdf(out, "running_time_cdf", cell.running_time_seconds);
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace dollymp
