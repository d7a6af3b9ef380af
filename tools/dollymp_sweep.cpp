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
//     --cluster paper30 | google[:N] | google-trace[:N] | gpu[:N] |
//               uniform:N:CPU:MEM   (default paper30; gpu with --gpus)
//     --jobs N           synthesize N trace-model jobs       (default 200)
//     --gap SECONDS      mean Poisson inter-arrival gap      (default 20)
//     --gpus K           mix K gang-scheduled ML training jobs into the
//                        workload and, unless --cluster names one, run on
//                        the gpu-pod inventory
//     --slot SECONDS     slot length                         (default 5)
//     --seed S           workload seed / first environment seed (default 1)
//     --replications R   environment seeds S, S+1, ..., S+R-1  (default 3)
//     --seeds A,B,...    explicit environment seed list (overrides -R)
//     --policies a,b,... policy names: capacity hopper drf tetris carbyne
//                        srpt svf dollymp0-9 (default: the first seven,
//                        dollymp0 and dollymp2)
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
#include <optional>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/sched/policies.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace {

using namespace dollymp;

struct Options {
  std::optional<std::string> cluster;  ///< absent: paper30, or gpu with --gpus
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
      "usage: dollymp_sweep [--cluster paper30|google[:N]|google-trace[:N]|gpu[:N]|\n"
      "                               uniform:N:CPU:MEM]\n"
      "                     [--jobs N] [--gap SECONDS] [--gpus K] [--slot SECONDS]\n"
      "                     [--seed S] [--replications R] [--seeds A,B,...]\n"
      "                     [--policies a,b,...] [--faults a,b,...]\n"
      "                     [--threads N] [--out FILE] [--quiet]\n"
      "\n"
      "policies: capacity hopper drf tetris carbyne srpt svf dollymp0-9\n"
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

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  SweepSpec spec;
  // The GPU scenario defaults to the gpu-pod inventory; an explicit
  // --cluster wins.
  const std::string cluster = opt.cluster.value_or(opt.gpus > 0 ? "gpu" : "paper30");
  spec.cluster = cli::parse_with("--cluster", [&] { return Cluster::from_spec(cluster); });
  spec.base.slot_seconds = opt.slot;
  spec.base.seed = opt.seed;

  TraceModel model({}, opt.seed);
  spec.jobs = model.sample_jobs(opt.jobs);
  assign_poisson_arrivals(spec.jobs, opt.gap, opt.seed);
  if (opt.gpus > 0) append_mltrain_mix(spec.jobs, opt.gpus, opt.gap, opt.seed + 2);

  for (const auto& name : split(opt.policies, ',')) {
    spec.policies.push_back(
        {name, cli::parse_with("--policies", [&] { return named_policy_factory(name); })});
  }
  if (spec.policies.empty()) {
    std::cerr << "--policies selected nothing\n";
    usage(2);
  }
  for (const auto& name : split(opt.faults, ',')) {
    spec.fault_presets.push_back(
        cli::parse_with("--faults", [&] { return make_fault_preset(name); }));
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

  SweepResult result;
  try {
    result = run_sweep(spec, pool.get());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
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
