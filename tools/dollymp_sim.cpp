// dollymp_sim — command-line driver for the simulator.
//
// Run any scheduler against a synthetic or file-based workload and get a
// summary on stdout plus (optionally) per-job records as CSV.
//
//   dollymp_sim [options]
//     --cluster  paper30 | google[:N] | google-trace[:N] | gpu[:N] |
//                uniform:N:CPU:MEM   (default paper30; gpu with --gpus)
//     --scheduler capacity|hopper|drf|tetris|carbyne|srpt|svf|dollymp<0-9>
//                        (default dollymp2; K of dollymp<K> is the clone budget)
//     --jobs N           synthesize N trace-model jobs          (default 200)
//     --gap SECONDS      mean Poisson inter-arrival gap         (default 20)
//     --gpus K           mix K gang-scheduled ML training jobs into the
//                        workload and, unless --cluster names one, run on
//                        the mixed gpu-pod inventory
//     --trace FILE       replay a trace CSV instead of synthesizing
//     --seed S           environment seed                        (default 1)
//     --slot SECONDS     slot length                             (default 5)
//     --straggler-aware  enable learned server scoring (dollymp<K> only)
//     --failures MTBF:REPAIR  enable machine failures (seconds)
//     --rack-faults MTTF:REPAIR   enable rack-correlated outages (seconds)
//     --fail-slow ONSET:RECOVERY:FACTOR  enable fail-slow servers: mean
//                        seconds to onset/recovery, execution slowdown
//     --copy-faults MEAN enable transient copy faults (mean seconds between)
//     --weibull SHAPE    draw all fault delays from a Weibull with this
//                        shape instead of the exponential (k<1: infant
//                        mortality; k>1: wear-out; k=1: exponential)
//     --resilience       enable the DollyMP resilience policies (retry
//                        backoff, quarantine, clone degradation;
//                        dollymp<K> only)
//     --out FILE         write per-job records as CSV
//     --trace-out FILE   record the run and write Chrome trace JSON
//                        (load it at https://ui.perfetto.dev)
//     --log-out FILE     record the run and write the binary flight log
//     --verify-log FILE  run once and verify against a saved flight log
//     --flight-recorder N  keep a bounded ring of the last N records;
//                        dumped decoded to stderr if the run fails
//     --verify-replay    run the config twice and fail on any divergence
//                        (exit 1), reporting the first divergent record
//     --compare          run ALL schedulers on the workload (paired) and
//                        print a comparison table instead of one summary
//     --quiet            summary line only
//     --help
//
// Flags also accept --flag=value.  Unknown flags are rejected, and so is
// a DollyMP-only flag with a baseline scheduler (exit 2).
//
// Examples:
//   dollymp_sim --scheduler tetris --jobs 500 --gap 10
//   dollymp_sim --cluster google:300 --trace mytrace.csv --out results.csv
//   dollymp_sim --jobs 50 --trace-out run.trace.json
//   dollymp_sim --cluster google-trace:3000 --verify-replay
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
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
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_io.h"
#include "dollymp/workload/trace_model.h"

namespace {

using namespace dollymp;

struct Options {
  std::optional<std::string> cluster;  ///< absent: paper30, or gpu with --gpus
  std::string scheduler = "dollymp2";
  int jobs = 200;
  double gap = 20.0;
  int gpus = 0;
  std::string trace;
  std::uint64_t seed = 1;
  double slot = 5.0;
  bool straggler_aware = false;
  double failure_mtbf = 0.0;
  double failure_repair = 0.0;
  double rack_mttf = 0.0;
  double rack_repair = 0.0;
  double fail_slow_onset = 0.0;
  double fail_slow_recovery = 0.0;
  double fail_slow_factor = 0.0;
  double copy_fault_mean = 0.0;
  double weibull_shape = 0.0;
  bool resilience = false;
  std::string out;
  std::string trace_out;
  std::string log_out;
  std::string verify_log;
  std::size_t flight_recorder = 0;
  bool verify_replay = false;
  bool quiet = false;
  bool compare = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: dollymp_sim [--cluster paper30|google[:N]|google-trace[:N]|gpu[:N]|\n"
      "                             uniform:N:CPU:MEM]\n"
      "                   [--scheduler capacity|hopper|drf|tetris|carbyne|srpt|svf|dollymp0-9]\n"
      "                   [--jobs N] [--gap SECONDS] [--gpus K] [--trace FILE] [--seed S]\n"
      "                   [--slot SECONDS] [--straggler-aware]\n"
      "                   [--failures MTBF:REPAIR] [--rack-faults MTTF:REPAIR]\n"
      "                   [--fail-slow ONSET:RECOVERY:FACTOR] [--copy-faults MEAN]\n"
      "                   [--weibull SHAPE] [--resilience]\n"
      "                   [--out FILE] [--compare] [--quiet]\n"
      "\n"
      "--straggler-aware and --resilience apply to the dollymp<K> schedulers only.\n"
      "\n"
      "flight recorder / tracing (flags also accept --flag=value):\n"
      "  --trace-out FILE     record the run and write Chrome trace JSON with\n"
      "                       per-server lanes (open at https://ui.perfetto.dev)\n"
      "  --log-out FILE       record the run and write the binary flight log\n"
      "  --verify-log FILE    run once and verify against a saved flight log;\n"
      "                       exit 1 with the first divergent record on mismatch\n"
      "  --flight-recorder N  bounded ring of the newest N records, decoded to\n"
      "                       stderr when the run throws (dump-on-anomaly)\n"
      "  --verify-replay      run the config twice, compare the record streams,\n"
      "                       exit 1 with the first divergent record decoded\n";
  std::exit(code);
}

using cli::split;

/// Every flag the dispatch loop below accepts — the did-you-mean corpus.
const std::vector<std::string> kKnownFlags = {
    "--help",          "--cluster",      "--scheduler",       "--jobs",
    "--gap",           "--gpus",         "--trace",           "--seed",
    "--slot",
    "--straggler-aware", "--failures",   "--rack-faults",     "--fail-slow",
    "--copy-faults",   "--weibull",      "--resilience",      "--out",
    "--trace-out",     "--log-out",      "--verify-log",      "--flight-recorder",
    "--verify-replay", "--compare",      "--quiet"};

Options parse_options(int argc, char** argv) {
  Options opt;
  const std::vector<std::string> args = cli::normalize_args(argc, argv);
  const int n = static_cast<int>(args.size());
  auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= n) {
      std::cerr << "missing value for " << args[static_cast<std::size_t>(i)] << "\n";
      usage(2);
    }
    return args[static_cast<std::size_t>(++i)];
  };
  for (int i = 0; i < n; ++i) {
    const std::string& arg = args[static_cast<std::size_t>(i)];
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--cluster") opt.cluster = need_value(i);
    else if (arg == "--scheduler") opt.scheduler = need_value(i);
    else if (arg == "--jobs") opt.jobs = cli::parse_flag("--jobs", need_value(i), 1);
    else if (arg == "--gap") opt.gap = cli::parse_flag("--gap", need_value(i), 0.0);
    else if (arg == "--gpus") opt.gpus = cli::parse_flag("--gpus", need_value(i), 0);
    else if (arg == "--trace") opt.trace = need_value(i);
    else if (arg == "--seed") opt.seed = cli::parse_flag("--seed", need_value(i), std::uint64_t{0});
    else if (arg == "--slot") opt.slot = cli::parse_flag("--slot", need_value(i), 0.0);
    else if (arg == "--straggler-aware") opt.straggler_aware = true;
    else if (arg == "--failures") {
      const auto parts = split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--failures wants MTBF:REPAIR seconds\n";
        usage(2);
      }
      opt.failure_mtbf = cli::parse_flag("--failures", parts[0], 0.0);
      opt.failure_repair = cli::parse_flag("--failures", parts[1], 0.0);
    } else if (arg == "--rack-faults") {
      const auto parts = split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--rack-faults wants MTTF:REPAIR seconds\n";
        usage(2);
      }
      opt.rack_mttf = cli::parse_flag("--rack-faults", parts[0], 0.0);
      opt.rack_repair = cli::parse_flag("--rack-faults", parts[1], 0.0);
    } else if (arg == "--fail-slow") {
      const auto parts = split(need_value(i), ':');
      if (parts.size() != 3) {
        std::cerr << "--fail-slow wants ONSET:RECOVERY:FACTOR\n";
        usage(2);
      }
      opt.fail_slow_onset = cli::parse_flag("--fail-slow", parts[0], 0.0);
      opt.fail_slow_recovery = cli::parse_flag("--fail-slow", parts[1], 0.0);
      opt.fail_slow_factor = cli::parse_flag("--fail-slow", parts[2], 0.0);
    } else if (arg == "--copy-faults") {
      opt.copy_fault_mean = cli::parse_flag("--copy-faults", need_value(i), 0.0);
    } else if (arg == "--weibull") {
      opt.weibull_shape = cli::parse_flag("--weibull", need_value(i), 0.0);
    }
    else if (arg == "--resilience") opt.resilience = true;
    else if (arg == "--out") opt.out = need_value(i);
    else if (arg == "--trace-out") opt.trace_out = need_value(i);
    else if (arg == "--log-out") opt.log_out = need_value(i);
    else if (arg == "--verify-log") opt.verify_log = need_value(i);
    else if (arg == "--flight-recorder") {
      opt.flight_recorder = cli::parse_flag("--flight-recorder", need_value(i), std::size_t{1});
    }
    else if (arg == "--verify-replay") opt.verify_replay = true;
    else if (arg == "--compare") opt.compare = true;
    else if (arg == "--quiet") opt.quiet = true;
    else {
      std::cerr << cli::unknown_flag_message(arg, kKnownFlags) << "\n";
      usage(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  // DollyMP options exist only when a DollyMP-only flag asks for them, so
  // the registry rejects such a flag given with a baseline.
  std::optional<DollyMPConfig> dollymp;
  if (opt.straggler_aware || opt.resilience) {
    dollymp.emplace();
    dollymp->straggler_aware = opt.straggler_aware;
    dollymp->resilience.enabled = opt.resilience;
  }
  const SchedulerFactory factory = cli::parse_with(
      "--scheduler", [&] { return named_policy_factory(opt.scheduler, dollymp); });
  // The GPU scenario defaults to the mixed gpu-pod inventory; an explicit
  // --cluster wins.
  const std::string cluster_spec = opt.cluster.value_or(opt.gpus > 0 ? "gpu" : "paper30");
  const Cluster cluster =
      cli::parse_with("--cluster", [&] { return Cluster::from_spec(cluster_spec); });

  std::vector<JobSpec> jobs;
  if (!opt.trace.empty()) {
    jobs = load_trace(opt.trace);
  } else {
    TraceModel model({}, opt.seed);
    jobs = model.sample_jobs(opt.jobs);
    assign_poisson_arrivals(jobs, opt.gap, opt.seed + 1);
  }
  if (opt.gpus > 0) append_mltrain_mix(jobs, opt.gpus, opt.gap, opt.seed + 2);

  SimConfig config;
  config.slot_seconds = opt.slot;
  config.seed = opt.seed;
  if (opt.failure_mtbf > 0.0) {
    config.failures.enabled = true;
    config.failures.mean_time_to_failure_seconds = opt.failure_mtbf;
    config.failures.mean_repair_seconds = opt.failure_repair;
  }
  if (opt.rack_mttf > 0.0) {
    config.faults.rack.enabled = true;
    config.faults.rack.time_to_failure.mean_seconds = opt.rack_mttf;
    config.faults.rack.repair.mean_seconds = opt.rack_repair;
  }
  if (opt.fail_slow_onset > 0.0) {
    config.faults.fail_slow.enabled = true;
    config.faults.fail_slow.time_to_onset.mean_seconds = opt.fail_slow_onset;
    config.faults.fail_slow.recovery.mean_seconds = opt.fail_slow_recovery;
    config.faults.fail_slow.slowdown_factor = opt.fail_slow_factor;
  }
  if (opt.copy_fault_mean > 0.0) {
    config.faults.copy.enabled = true;
    config.faults.copy.inter_fault.mean_seconds = opt.copy_fault_mean;
  }
  if (opt.weibull_shape > 0.0) {
    config.faults.crash_dist = FaultDelayDist::kWeibull;
    config.faults.crash_weibull_shape = opt.weibull_shape;
    for (FaultDelaySpec* spec :
         {&config.faults.rack.time_to_failure, &config.faults.rack.repair,
          &config.faults.fail_slow.time_to_onset, &config.faults.fail_slow.recovery,
          &config.faults.copy.inter_fault}) {
      spec->dist = FaultDelayDist::kWeibull;
      spec->weibull_shape = opt.weibull_shape;
    }
  }
  // Fail fast with a parameter-naming message instead of deep inside run().
  try {
    config.validate();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (opt.compare) {
    if (!opt.trace_out.empty() || !opt.log_out.empty() || opt.flight_recorder > 0 ||
        opt.verify_replay || !opt.verify_log.empty()) {
      std::cerr << "note: recorder/verify flags are ignored with --compare\n";
    }
    ComparisonSpec spec;
    spec.cluster = cluster;
    spec.config = config;
    spec.jobs = jobs;
    std::vector<ComparisonEntry> entries;
    for (const char* key :
         {"capacity", "drf", "tetris", "carbyne", "srpt", "svf", "dollymp0", "dollymp2"}) {
      entries.push_back({key, named_policy_factory(key)});
    }
    ThreadPool pool;
    const auto results = run_comparison(spec, entries, &pool);
    std::vector<RunSummary> summaries;
    summaries.reserve(results.size());
    for (const auto& r : results) summaries.push_back(summarize(r));
    std::cout << render_summaries(summaries);
    std::cout << render_control_plane(summaries);
    return 0;
  }

  // Replay verification: run the config twice (or once against a saved
  // log), compare the flight-recorder streams, and report the first
  // divergent record decoded on both sides.  Exit 1 on any divergence so CI
  // can gate on determinism.
  if (opt.verify_replay || !opt.verify_log.empty()) {
    bool identical = true;
    if (opt.verify_replay) {
      const DivergenceReport report = verify_replay(cluster, config, jobs, factory);
      std::cout << "verify-replay [" << opt.scheduler << "]: " << report.to_string()
                << "\n";
      identical = identical && report.identical;
    }
    if (!opt.verify_log.empty()) {
      const TraceLog reference = load_log(opt.verify_log);
      const DivergenceReport report =
          verify_against_log(cluster, config, jobs, factory, reference.records);
      std::cout << "verify-log [" << opt.verify_log << "]: " << report.to_string()
                << "\n";
      identical = identical && report.identical;
    }
    return identical ? 0 : 1;
  }

  // Trace export wants the whole stream; the bounded ring is the always-on
  // "tell me what just happened" mode for long runs.
  std::unique_ptr<Recorder> recorder;
  if (!opt.trace_out.empty() || !opt.log_out.empty()) {
    recorder = std::make_unique<Recorder>();
  } else if (opt.flight_recorder > 0) {
    recorder = std::make_unique<Recorder>(opt.flight_recorder);
  }
  config.recorder = recorder.get();

  const auto scheduler = factory();
  SimResult result;
  try {
    result = simulate(cluster, config, jobs, *scheduler);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    if (recorder != nullptr && recorder->records_written() > 0) {
      std::cerr << "flight recorder dump (newest " << recorder->size() << " of "
                << recorder->records_written() << " records):\n";
      recorder->dump(std::cerr);
    }
    return 3;
  }
  const RunSummary summary = summarize(result);

  if (opt.quiet) {
    std::cout << result.scheduler << " jobs=" << summary.jobs
              << " mean_flow_s=" << summary.mean_flowtime
              << " makespan_s=" << summary.makespan << "\n";
  } else {
    std::cout << render_summaries({summary});
    std::cout << render_control_plane({summary});
    std::cout << render_cdf_rows("flowtime_s", flowtime_cdf(result));
    std::cout << render_cdf_rows("running_s", running_time_cdf(result));
  }
  if (!opt.out.empty()) {
    save_results(result, opt.out);
    std::cout << "wrote per-job records to " << opt.out << "\n";
  }
  if (recorder != nullptr && !opt.trace_out.empty()) {
    ChromeTraceOptions trace_options;
    trace_options.slot_seconds = config.slot_seconds;
    std::ofstream trace_file(opt.trace_out, std::ios::binary);
    if (!trace_file ||
        !(trace_file << chrome_trace_json(recorder->snapshot(), trace_options))) {
      std::cerr << "cannot write " << opt.trace_out << "\n";
      return 3;
    }
    std::cout << "wrote Chrome trace JSON to " << opt.trace_out
              << " (open at https://ui.perfetto.dev)\n";
  }
  if (recorder != nullptr && !opt.log_out.empty()) {
    save_log(opt.log_out, recorder->snapshot(), config.slot_seconds);
    std::cout << "wrote flight log (" << recorder->records_written() << " records) to "
              << opt.log_out << "\n";
  }
  return 0;
}
