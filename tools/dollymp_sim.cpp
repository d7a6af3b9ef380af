// dollymp_sim — command-line driver for the simulator.
//
// Run any scheduler against a synthetic or file-based workload and get a
// summary on stdout plus (optionally) per-job records as CSV, a Chrome
// trace or a binary flight log; or run every policy side by side
// (--compare), or check that a run replays bit for bit (--verify-replay,
// --verify-log).  `dollymp_sim --help` lists the flags.
//
// Exit status: 0 success, 1 a replay verification found a divergence, 2 a
// usage error or invalid configuration, 3 a run-time error.
//
// Examples:
//   dollymp_sim --scheduler tetris --jobs 500 --gap 10
//   dollymp_sim --cluster google:300 --trace mytrace.csv --out results.csv
//   dollymp_sim --jobs 50 --trace-out run.trace.json
//   dollymp_sim --cluster google-trace:3000 --verify-replay
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/metrics/report.h"
#include "dollymp/obs/chrome_trace.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/policies.h"
#include "dollymp/sim/simulator.h"

namespace {

using namespace dollymp;

/// The flags only this tool has; the shared ones fill a RunSpec.
struct Options {
  std::string scheduler = "dollymp2";
  bool scheduler_set = false;  ///< --compare runs every policy and takes none
  bool compare = false;
  std::string out;
  std::string trace_out;
  std::string log_out;
  std::string verify_log;
  std::size_t flight_recorder = 0;
  bool verify_replay = false;
  bool quiet = false;
};

const char* const kAbout =
    "usage: dollymp_sim [flags]\n"
    "Run one scheduler (or every policy, with --compare) on a synthetic or trace\n"
    "workload and print its flowtime and control-plane tables.";

/// --compare: every policy on the same workload and environment seed.
void compare(const Cluster& cluster, const SimConfig& config, const std::vector<JobSpec>& jobs,
             const std::optional<DollyMPConfig>& dollymp) {
  std::vector<ComparisonEntry> entries;
  for (const std::string key :
       {"capacity", "drf", "tetris", "carbyne", "srpt", "svf", "dollymp0", "dollymp2"}) {
    const bool dollymp_row = key.starts_with("dollymp");
    entries.push_back({key, named_policy_factory(key, dollymp_row ? dollymp : std::nullopt)});
  }
  ThreadPool pool;
  std::vector<RunSummary> summaries;
  for (const auto& r : run_comparison({cluster, config, jobs}, entries, &pool)) {
    summaries.push_back(summarize(r));
  }
  std::cout << render_summaries(summaries);
  std::cout << render_control_plane(summaries);
}

/// --verify-replay / --verify-log: run the config twice (or once against a
/// saved log), compare the flight-recorder streams and report the first
/// divergent record decoded on both sides.  False on any divergence.
bool verify(const Options& opt, const Cluster& cluster, const SimConfig& config,
            const std::vector<JobSpec>& jobs, const SchedulerFactory& factory) {
  bool identical = true;
  if (opt.verify_replay) {
    const DivergenceReport report = verify_replay(cluster, config, jobs, factory);
    std::cout << "verify-replay [" << opt.scheduler << "]: " << report.to_string() << "\n";
    identical = identical && report.identical;
  }
  if (!opt.verify_log.empty()) {
    const TraceLog reference = load_log(opt.verify_log);
    const DivergenceReport report =
        verify_against_log(cluster, config, jobs, factory, reference.records);
    std::cout << "verify-log [" << opt.verify_log << "]: " << report.to_string() << "\n";
    identical = identical && report.identical;
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec run;
  Options opt;
  // DollyMP options exist only when a DollyMP-only flag asks for them, so
  // the registry rejects such a flag given with a baseline.
  std::optional<DollyMPConfig> dollymp;
  std::vector<cli::Flag> flags =
      run.flags({"--cluster", "--jobs", "--gap", "--gpus", "--trace", "--seed", "--slot",
                 "--failures", "--rack-faults", "--fail-slow", "--copy-faults", "--weibull"});
  flags.insert(flags.end(), {
      {"--scheduler", "NAME",
       "capacity | hopper | drf | tetris | carbyne | srpt | svf | dollymp<K>, K the clone "
       "budget (default dollymp2)",
       [&](const std::string& name) {
         opt.scheduler = name;
         opt.scheduler_set = true;
       }},
      {"--straggler-aware", "", "learned server scoring (dollymp<K> only)",
       [&](const std::string&) {
         (dollymp ? *dollymp : dollymp.emplace()).straggler_aware = true;
       }},
      {"--resilience", "", "retry backoff, quarantine and clone degradation (dollymp<K> only)",
       [&](const std::string&) {
         (dollymp ? *dollymp : dollymp.emplace()).resilience.enabled = true;
       }},
      {"--compare", "",
       "run every policy on the workload, paired, and print one table (no --scheduler; "
       "the DollyMP options apply to its DollyMP rows)",
       cli::set_true(opt.compare)},
      {"--out", "FILE", "write per-job records as CSV", cli::set_text(opt.out)},
      {"--trace-out", "FILE", "record the run and write Chrome trace JSON (ui.perfetto.dev)",
       cli::set_text(opt.trace_out)},
      {"--log-out", "FILE", "record the run and write the binary flight log",
       cli::set_text(opt.log_out)},
      {"--verify-log", "FILE", "run once and verify against a saved flight log (exit 1 if not)",
       cli::set_text(opt.verify_log)},
      {"--flight-recorder", "N",
       "keep the newest N records; decoded to stderr if the run fails",
       cli::set_number(opt.flight_recorder, std::size_t{1})},
      {"--verify-replay", "",
       "run twice and compare the record streams (exit 1 if they differ)",
       cli::set_true(opt.verify_replay)},
      {"--quiet", "", "summary line only", cli::set_true(opt.quiet)},
  });
  cli::parse(argc, argv, kAbout, flags);
  if (opt.compare && opt.scheduler_set) {
    cli::exit_usage_error("--compare runs every policy; drop --scheduler");
  }
  const SchedulerFactory factory = cli::parse_with(
      "--scheduler", [&] { return named_policy_factory(opt.scheduler, dollymp); });
  const Cluster cluster = cli::parse_with("--cluster", [&] { return run.make_cluster(); });

  SimConfig& config = run.config;
  // Trace export wants the whole stream; the bounded ring is the always-on
  // "tell me what just happened" mode for long runs.
  std::unique_ptr<Recorder> recorder;
  std::optional<SimResult> result;
  try {
    const std::vector<JobSpec> jobs = run.make_jobs(config.seed);
    if (opt.compare) {
      if (!opt.trace_out.empty() || !opt.log_out.empty() || opt.flight_recorder > 0 ||
          opt.verify_replay || !opt.verify_log.empty()) {
        std::cerr << "note: recorder/verify flags are ignored with --compare\n";
      }
      compare(cluster, config, jobs, dollymp);
      return 0;
    }
    if (opt.verify_replay || !opt.verify_log.empty()) {
      return verify(opt, cluster, config, jobs, factory) ? 0 : 1;
    }

    if (!opt.trace_out.empty() || !opt.log_out.empty()) {
      recorder = std::make_unique<Recorder>();
    } else if (opt.flight_recorder > 0) {
      recorder = std::make_unique<Recorder>(opt.flight_recorder);
    }
    config.recorder = recorder.get();
    result = simulate(cluster, config, jobs, *factory());

    const RunSummary summary = summarize(*result);
    if (opt.quiet) {
      std::cout << result->scheduler << " jobs=" << summary.jobs
                << " mean_flow_s=" << summary.mean_flowtime
                << " makespan_s=" << summary.makespan << "\n";
    } else {
      std::cout << render_summaries({summary});
      std::cout << render_control_plane({summary});
      std::cout << render_cdf_rows("flowtime_s", flowtime_cdf(*result));
      std::cout << render_cdf_rows("running_s", running_time_cdf(*result));
    }
    if (!opt.out.empty()) {
      save_results(*result, opt.out);
      std::cout << "wrote per-job records to " << opt.out << "\n";
    }
    if (!opt.trace_out.empty()) {
      ChromeTraceOptions trace_options;
      trace_options.slot_seconds = config.slot_seconds;
      cli::write_file(opt.trace_out, chrome_trace_json(recorder->snapshot(), trace_options));
      std::cout << "wrote Chrome trace JSON to " << opt.trace_out
                << " (open at https://ui.perfetto.dev)\n";
    }
    if (!opt.log_out.empty()) {
      save_log(opt.log_out, recorder->snapshot(), config.slot_seconds);
      std::cout << "wrote flight log (" << recorder->records_written() << " records) to "
                << opt.log_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    // A run that failed before its result dumps the flight recorder.
    if (!result && recorder != nullptr && recorder->records_written() > 0) {
      std::cerr << "flight recorder dump (newest " << recorder->size() << " of "
                << recorder->records_written() << " records):\n";
      recorder->dump(std::cerr);
    }
    return 3;
  }
  return 0;
}
