#include "dollymp/metrics/report.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "dollymp/common/csv.h"
#include "dollymp/common/table.h"

namespace dollymp {

RunSummary summarize(const SimResult& result) {
  RunSummary s;
  s.scheduler = result.scheduler;
  s.jobs = result.jobs.size();
  s.total_flowtime = result.total_flowtime();
  s.mean_flowtime = result.mean_flowtime();
  s.makespan = result.makespan_seconds;
  s.total_resource_seconds = result.total_resource_seconds();
  s.cloned_task_fraction = result.cloned_task_fraction();
  RunningStats run;
  for (const auto& j : result.jobs) {
    run.add(j.running_time());
    s.clones_launched += j.clones_launched;
  }
  s.mean_running_time = run.mean();
  if (!result.jobs.empty()) {
    s.p95_flowtime = flowtime_cdf(result).quantile(0.95);
    s.p95_running_time = running_time_cdf(result).quantile(0.95);
  }
  s.stats = result.stats;
  return s;
}

Cdf flowtime_cdf(const SimResult& result) {
  std::vector<double> samples;
  samples.reserve(result.jobs.size());
  for (const auto& j : result.jobs) samples.push_back(j.flowtime());
  return Cdf(std::move(samples));
}

Cdf running_time_cdf(const SimResult& result) {
  std::vector<double> samples;
  samples.reserve(result.jobs.size());
  for (const auto& j : result.jobs) samples.push_back(j.running_time());
  return Cdf(std::move(samples));
}

std::vector<std::pair<double, double>> cumulative_flowtime_series(const SimResult& result) {
  std::vector<const JobRecord*> by_arrival;
  by_arrival.reserve(result.jobs.size());
  for (const auto& j : result.jobs) by_arrival.push_back(&j);
  std::stable_sort(by_arrival.begin(), by_arrival.end(),
                   [](const JobRecord* a, const JobRecord* b) {
                     return a->arrival_seconds < b->arrival_seconds;
                   });
  std::vector<std::pair<double, double>> series;
  series.reserve(by_arrival.size());
  double cumulative = 0.0;
  for (const auto* j : by_arrival) {
    cumulative += j->flowtime();
    series.emplace_back(j->arrival_seconds, cumulative);
  }
  return series;
}

PairedRatios paired_ratios(const SimResult& numerator, const SimResult& denominator) {
  std::unordered_map<JobId, const JobRecord*> base;
  base.reserve(denominator.jobs.size());
  for (const auto& j : denominator.jobs) base.emplace(j.id, &j);

  PairedRatios ratios;
  for (const auto& j : numerator.jobs) {
    const auto it = base.find(j.id);
    if (it == base.end()) {
      throw std::invalid_argument("paired_ratios: job sets differ (id " +
                                  std::to_string(j.id) + ")");
    }
    const JobRecord& b = *it->second;
    if (b.flowtime() > 0.0) ratios.flowtime_ratio.add(j.flowtime() / b.flowtime());
    if (b.running_time() > 0.0) {
      ratios.running_time_ratio.add(j.running_time() / b.running_time());
    }
    if (b.resource_seconds > 0.0) {
      ratios.resource_ratio.add(j.resource_seconds / b.resource_seconds);
    }
  }
  return ratios;
}

double PairedRatios::fraction_flowtime_reduced_by(double cut) const {
  return flowtime_ratio.fraction_at_most(1.0 - cut);
}

double mean_flowtime_reduction(const SimResult& candidate, const SimResult& baseline) {
  const double base = baseline.mean_flowtime();
  if (base <= 0.0) return 0.0;
  return 1.0 - candidate.mean_flowtime() / base;
}

std::string render_summaries(const std::vector<RunSummary>& summaries) {
  ConsoleTable table({"scheduler", "jobs", "total_flow_s", "mean_flow_s", "p95_flow_s",
                      "mean_run_s", "p95_run_s", "makespan_s", "resource_s",
                      "cloned_frac", "clones"});
  for (const auto& s : summaries) {
    table.add_row({s.scheduler, std::to_string(s.jobs),
                   ConsoleTable::format_double(s.total_flowtime, 0),
                   ConsoleTable::format_double(s.mean_flowtime, 1),
                   ConsoleTable::format_double(s.p95_flowtime, 1),
                   ConsoleTable::format_double(s.mean_running_time, 1),
                   ConsoleTable::format_double(s.p95_running_time, 1),
                   ConsoleTable::format_double(s.makespan, 0),
                   ConsoleTable::format_double(s.total_resource_seconds, 0),
                   ConsoleTable::format_double(s.cloned_task_fraction, 3),
                   std::to_string(s.clones_launched)});
  }
  return table.render();
}

namespace {

// "-" when no recorder ran; otherwise the stream hash as compact hex — the
// run's replay fingerprint (obs/replay.h), eyeball-comparable across runs.
std::string format_recorder_hash(const SimStats& st) {
  if (st.recorder_records == 0) return "-";
  std::ostringstream os;
  os << "0x" << std::hex << st.recorder_hash;
  return os.str();
}

}  // namespace

std::string render_control_plane(const std::vector<RunSummary>& summaries) {
  ConsoleTable table({"scheduler", "invocations", "slots", "ff_slots", "timers",
                      "events", "arrive", "finish", "fail", "fault_kill",
                      "work_lost_s", "retries", "quarantine", "clone_degr",
                      "shed", "ovl_level", "attempts", "placed",
                      "gangs", "gang_rb", "rack_split",
                      "rej_cap", "rej_full", "rej_other", "idx_query", "idx_scan",
                      "idx_update", "idx_batch", "rec", "rec_evict", "rec_hash",
                      "slab_acq", "slab_reuse", "slab_blk", "B/server", "rss_mb",
                      "wall_ms"});
  for (const auto& s : summaries) {
    const SimStats& st = s.stats;
    table.add_row({s.scheduler, std::to_string(st.scheduler_invocations),
                   std::to_string(st.slots_visited),
                   std::to_string(st.slots_fast_forwarded),
                   std::to_string(st.events_timer),
                   std::to_string(st.events_processed()),
                   std::to_string(st.events_job_arrival),
                   std::to_string(st.events_copy_finish + st.events_work_finish),
                   // All machine-loss churn: independent crashes, their
                   // repairs, and rack-correlated outages.
                   std::to_string(st.events_server_failure + st.events_server_repair +
                                  st.events_rack_failure + st.events_rack_repair),
                   std::to_string(st.copies_killed_by_faults),
                   ConsoleTable::format_double(st.work_seconds_lost, 0),
                   std::to_string(st.retries_issued),
                   // entries/exits: "3/2" reads as one server still serving.
                   std::to_string(st.servers_quarantined) + "/" +
                       std::to_string(st.quarantine_exits),
                   std::to_string(st.clone_budget_degradations),
                   // bucket/watermark/level-3: which protection layer shed,
                   // all zero unless the service-mode gate is on.
                   std::to_string(st.arrivals_shed_admission) + "/" +
                       std::to_string(st.arrivals_shed_watermark) + "/" +
                       std::to_string(st.arrivals_shed_overload),
                   // transitions>peak: "4>2" reads as four ladder moves,
                   // worst level 2.
                   std::to_string(st.overload_transitions) + ">" +
                       std::to_string(st.overload_level_max),
                   std::to_string(st.placement_attempts),
                   std::to_string(st.placements_accepted),
                   // waves/tasks: a healthy gang run reads as
                   // "64/512" with tasks == waves * world_size.
                   std::to_string(st.gangs_placed) + "/" +
                       std::to_string(st.gang_tasks_placed),
                   std::to_string(st.gang_rollbacks),
                   std::to_string(st.gangs_split_across_racks),
                   std::to_string(st.rejected_copy_cap),
                   std::to_string(st.rejected_no_capacity),
                   std::to_string(st.rejected_job_not_ready + st.rejected_phase_not_runnable +
                                  st.rejected_invalid_server),
                   std::to_string(st.index_queries),
                   std::to_string(st.index_servers_scanned),
                   std::to_string(st.index_updates),
                   // hits/rebuilds: a healthy batched run is hit-dominated.
                   std::to_string(st.index_batch_hits) + "/" +
                       std::to_string(st.index_batch_rebuilds),
                   std::to_string(st.recorder_records),
                   std::to_string(st.recorder_evictions),
                   format_recorder_hash(st),
                   std::to_string(st.copy_slab_acquires),
                   std::to_string(st.copy_slab_reuses),
                   std::to_string(st.copy_slab_blocks),
                   ConsoleTable::format_double(st.bytes_per_server, 0),
                   ConsoleTable::format_double(
                       static_cast<double>(st.peak_rss_bytes) / (1024.0 * 1024.0), 0),
                   ConsoleTable::format_double(st.wall_clock_seconds * 1e3, 1)});
  }
  return table.render();
}

double jain_fairness_of_slowdowns(const SimResult& result) {
  if (result.jobs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;
  for (const auto& j : result.jobs) {
    const double run = j.running_time();
    if (run <= 0.0) continue;
    const double slowdown = j.flowtime() / run;
    sum += slowdown;
    sum_sq += slowdown * slowdown;
    ++n;
  }
  if (n == 0 || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

Cdf slowdown_cdf(const SimResult& result) {
  std::vector<double> samples;
  samples.reserve(result.jobs.size());
  for (const auto& j : result.jobs) {
    const double run = j.running_time();
    if (run > 0.0) samples.push_back(j.flowtime() / run);
  }
  return Cdf(std::move(samples));
}

std::string results_to_csv(const SimResult& result) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.write_header({"job_id", "name", "app", "arrival_s", "first_start_s", "finish_s",
                       "flowtime_s", "running_s", "tasks", "clones", "speculative",
                       "tasks_with_clones", "resource_s"});
  for (const auto& j : result.jobs) {
    writer.write_row(static_cast<long long>(j.id), j.name, j.app, j.arrival_seconds,
                     j.first_start_seconds, j.finish_seconds, j.flowtime(),
                     j.running_time(), static_cast<long long>(j.total_tasks),
                     static_cast<long long>(j.clones_launched),
                     static_cast<long long>(j.speculative_launched),
                     static_cast<long long>(j.tasks_with_clones), j.resource_seconds);
  }
  return os.str();
}

void save_results(const SimResult& result, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_results: cannot write " + path);
  out << results_to_csv(result);
}

std::string render_cdf_rows(const std::string& label, const Cdf& cdf) {
  std::ostringstream os;
  os << label << ":";
  for (const auto& [q, v] : cdf.curve(10)) {
    os << "  p" << static_cast<int>(q * 100) << "=" << ConsoleTable::format_double(v, 1);
  }
  os << '\n';
  return os.str();
}

}  // namespace dollymp
