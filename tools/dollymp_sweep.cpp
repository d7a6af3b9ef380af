// dollymp_sweep — parallel experiment sweep driver.
//
// Runs the full replication grid seeds × policies × fault presets as
// independent simulations fanned across a worker thread pool (whole-run
// parallelism; each run itself is sequential), then
// aggregates flowtime / running-time CDFs and 95% confidence intervals
// into one JSON document.  The rendered JSON is byte-identical for every
// --threads value: replications are aggregated on the calling thread in
// fixed grid order and the document carries no wall-clock/host fields.
//
//   dollymp_sweep [options]
//     --cluster paper30 | google:<N> | google-trace[:<N>] | gpu[:<N>]
//                                                           (default paper30)
//     --jobs N           synthesize N trace-model jobs       (default 200)
//     --gap SECONDS      mean Poisson inter-arrival gap      (default 20)
//     --gpus K           mix K gang-scheduled ML training jobs into the
//                        workload, report GPUs as a third dimension, and
//                        default --cluster to the gpu-pod inventory
//     --slot SECONDS     slot length                         (default 5)
//     --seed S           workload seed / first environment seed (default 1)
//     --replications R   environment seeds S, S+1, ..., S+R-1  (default 3)
//     --seeds A,B,...    explicit environment seed list (overrides -R)
//     --policies a,b,... scheduler keys                      (default: all 9)
//     --faults a,b,...   fault presets: healthy,crash,rack,failslow,
//                        copyfault,all                       (default healthy)
//     --threads N        replications run concurrently on N workers
//                        (0 = hardware concurrency, 1 = serial)
//     --out FILE         write the JSON there instead of stdout
//     --quiet            suppress the timing summary line
//
// Flags also accept --flag=value.
//
// Examples:
//   dollymp_sweep --replications 5 --threads 0
//   dollymp_sweep --faults healthy,crash,all --policies dollymp2,capacity
//                 --threads 4 --out sweep.json   (one line)
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/carbyne.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sched/drf.h"
#include "dollymp/sched/hopper.h"
#include "dollymp/sched/simple_priority.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace {

using namespace dollymp;

struct Options {
  std::string cluster = "paper30";
  int jobs = 200;
  double gap = 20.0;
  int gpus = 0;
  double slot = 5.0;
  std::uint64_t seed = 1;
  int replications = 3;
  std::string seeds;
  std::string policies = "capacity,hopper,drf,tetris,carbyne,srpt,svf,dollymp0,dollymp2";
  std::string faults = "healthy";
  int threads = 1;
  std::string out;
  bool quiet = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: dollymp_sweep [--cluster paper30|google:N|google-trace[:N]|gpu[:N]]\n"
      "                     [--jobs N] [--gap SECONDS] [--gpus K] [--slot SECONDS]\n"
      "                     [--seed S] [--replications R] [--seeds A,B,...]\n"
      "                     [--policies a,b,...] [--faults a,b,...]\n"
      "                     [--threads N] [--out FILE] [--quiet]\n"
      "\n"
      "policies: capacity hopper drf tetris carbyne srpt svf dollymp0-3\n"
      "faults:   healthy crash rack failslow copyfault all\n"
      "\n"
      "The JSON is byte-identical for every --threads value; only the\n"
      "replications/sec line (stderr) depends on parallelism.\n";
  std::exit(code);
}

/// cli::split keeps empty tokens (getline semantics); the sweep's list
/// flags historically tolerate stray commas, so drop empties here.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts = cli::split(text, sep);
  std::erase_if(parts, [](const std::string& part) { return part.empty(); });
  return parts;
}

/// --threads ceiling: far above any core count, far below what would
/// exhaust the process table.
constexpr int kMaxThreads = 1024;

const std::vector<std::string> kKnownFlags = {
    "--help", "--cluster",      "--jobs",  "--gap",      "--gpus",
    "--slot", "--seed", "--replications", "--seeds", "--policies",
    "--faults", "--threads", "--out",       "--quiet"};

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
    else if (arg == "--jobs") opt.jobs = cli::parse_flag("--jobs", need_value(i), 1);
    else if (arg == "--gap") opt.gap = cli::parse_flag("--gap", need_value(i), 0.0);
    else if (arg == "--gpus") opt.gpus = cli::parse_flag("--gpus", need_value(i), 0);
    else if (arg == "--slot") opt.slot = cli::parse_flag("--slot", need_value(i), 0.0);
    else if (arg == "--seed") opt.seed = cli::parse_flag("--seed", need_value(i), std::uint64_t{0});
    else if (arg == "--replications") {
      opt.replications = cli::parse_flag("--replications", need_value(i), 1);
    }
    else if (arg == "--seeds") opt.seeds = need_value(i);
    else if (arg == "--policies") opt.policies = need_value(i);
    else if (arg == "--faults") opt.faults = need_value(i);
    else if (arg == "--threads") {
      opt.threads = cli::parse_flag("--threads", need_value(i), 0, kMaxThreads);
    }
    else if (arg == "--out") opt.out = need_value(i);
    else if (arg == "--quiet") opt.quiet = true;
    else {
      std::cerr << cli::unknown_flag_message(arg, kKnownFlags) << "\n";
      usage(2);
    }
  }
  return opt;
}

Cluster make_cluster(const std::string& spec) {
  if (spec == "paper30") return Cluster::paper30();
  if (spec == "google-trace") return Cluster::google_trace();
  if (spec == "gpu") return Cluster::gpu_pods(64);
  const auto parts = split(spec, ':');
  if (parts.size() == 2 && parts[0] == "google") {
    return Cluster::google_like(cli::parse_flag("--cluster", parts[1], std::size_t{1}));
  }
  if (parts.size() == 2 && parts[0] == "google-trace") {
    return Cluster::google_trace(cli::parse_flag("--cluster", parts[1], std::size_t{1}));
  }
  if (parts.size() == 2 && parts[0] == "gpu") {
    return Cluster::gpu_pods(cli::parse_flag("--cluster", parts[1], std::size_t{1}));
  }
  std::cerr << "unknown cluster spec '" << spec << "'\n";
  usage(2);
}

ComparisonEntry make_policy(const std::string& key) {
  if (key == "capacity") {
    return {key, [] { return std::make_unique<CapacityScheduler>(); }};
  }
  if (key == "hopper") {
    return {key, [] { return std::make_unique<HopperScheduler>(); }};
  }
  if (key == "drf") {
    return {key, [] { return std::make_unique<DrfScheduler>(); }};
  }
  if (key == "tetris") {
    return {key, [] { return std::make_unique<TetrisScheduler>(); }};
  }
  if (key == "carbyne") {
    return {key, [] { return std::make_unique<CarbyneScheduler>(); }};
  }
  if (key == "srpt") {
    return {key, [] {
              return std::make_unique<SimplePriorityScheduler>(
                  SimplePriorityConfig{SimplePriorityRule::kSrpt, 1.5, 0});
            }};
  }
  if (key == "svf") {
    return {key, [] {
              return std::make_unique<SimplePriorityScheduler>(
                  SimplePriorityConfig{SimplePriorityRule::kSvf, 1.5, 0});
            }};
  }
  if (key.rfind("dollymp", 0) == 0 && key.size() == 8 && key[7] >= '0' && key[7] <= '3') {
    const int budget = key[7] - '0';
    return {key, [budget] {
              DollyMPConfig config;
              config.clone_budget = budget;
              return std::make_unique<DollyMPScheduler>(config);
            }};
  }
  std::cerr << "unknown policy '" << key << "'\n";
  usage(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  if (opt.gpus > 0 && opt.cluster == "paper30") opt.cluster = "gpu";

  SweepSpec spec;
  spec.cluster = make_cluster(opt.cluster);
  spec.base.slot_seconds = opt.slot;
  spec.base.seed = opt.seed;
  if (opt.gpus > 0) spec.base.resource_dims = 3;

  TraceModel model({}, opt.seed);
  spec.jobs = model.sample_jobs(opt.jobs);
  assign_poisson_arrivals(spec.jobs, opt.gap, opt.seed);
  if (opt.gpus > 0) {
    JobId next_id = 0;
    for (const auto& job : spec.jobs) next_id = std::max(next_id, job.id + 1);
    std::vector<JobSpec> trainers;
    trainers.reserve(static_cast<std::size_t>(opt.gpus));
    for (int k = 0; k < opt.gpus; ++k) {
      trainers.push_back(make_mltrain(next_id + k));
    }
    assign_poisson_arrivals(trainers, opt.gap * 4.0, opt.seed + 2);
    spec.jobs.insert(spec.jobs.end(), trainers.begin(), trainers.end());
  }

  for (const auto& key : split(opt.policies, ',')) {
    spec.policies.push_back(make_policy(key));
  }
  if (spec.policies.empty()) {
    std::cerr << "--policies selected nothing\n";
    usage(2);
  }
  for (const auto& name : split(opt.faults, ',')) {
    try {
      spec.fault_presets.push_back(make_fault_preset(name));
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      usage(2);
    }
  }
  if (!opt.seeds.empty()) {
    for (const auto& s : split(opt.seeds, ',')) {
      spec.seeds.push_back(cli::parse_flag("--seeds", s, std::uint64_t{0}));
    }
  } else {
    for (int r = 0; r < opt.replications; ++r) {
      spec.seeds.push_back(opt.seed + static_cast<std::uint64_t>(r));
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (opt.threads != 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(opt.threads));
  }

  const SweepResult result = run_sweep(spec, pool.get());
  const std::string json = render_sweep_json(result);

  if (opt.out.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(opt.out, std::ios::binary);
    if (!out || !out.write(json.data(), static_cast<std::streamsize>(json.size()))) {
      std::cerr << "cannot write " << opt.out << "\n";
      return 1;
    }
    if (!opt.quiet) std::cout << "wrote sweep JSON to " << opt.out << "\n";
  }
  if (!opt.quiet) {
    const double rate = result.wall_clock_seconds > 0.0
                            ? static_cast<double>(result.replications) / result.wall_clock_seconds
                            : 0.0;
    std::cerr << "sweep: " << result.replications << " replications ("
              << spec.policies.size() << " policies x " << spec.fault_presets.size()
              << " faults x " << spec.seeds.size() << " seeds) on "
              << (pool ? pool->size() : 1) << " worker(s) in "
              << result.wall_clock_seconds << "s = " << rate << " replications/sec\n";
  }
  return 0;
}
