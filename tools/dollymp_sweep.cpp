// dollymp_sweep — parallel experiment sweep driver.
//
// Runs the full replication grid seeds × policies × fault presets as
// independent simulations fanned across a worker thread pool (whole-run
// parallelism; each run itself is sequential), then
// aggregates flowtime / running-time CDFs and 95% confidence intervals
// into one JSON document.  The rendered JSON is byte-identical for every
// --threads value: replications are aggregated on the calling thread in
// fixed grid order and the document carries no wall-clock/host fields.
// The workload is RunSpec::make_jobs(--seed), so a one-replication cell
// is the run dollymp_sim gives for the same flags.  `dollymp_sweep --help`
// lists the flags.
//
// Exit status: 0 success, 2 a usage error or invalid configuration, 3 a
// run-time error.
//
// Examples:
//   dollymp_sweep --replications 5 --threads 0
//   dollymp_sweep --faults healthy,crash,all --policies dollymp2,capacity
//                 --threads 4 --out sweep.json   (one line)
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/sched/policies.h"

namespace {

using namespace dollymp;

const char* const kAbout =
    "usage: dollymp_sweep [flags]\n"
    "Run policies x fault presets x seeds on one workload and print per-cell\n"
    "means, 95% CIs and CDFs as JSON, byte-identical for every --threads value\n"
    "(only the replications/sec line on stderr depends on parallelism).";

/// --threads ceiling: far above any core count, far below what would
/// exhaust the process table.
constexpr int kMaxThreads = 1024;

}  // namespace

int main(int argc, char** argv) {
  RunSpec run;
  SweepSpec spec;
  int replications = 3;
  int threads = 1;
  std::string out;
  bool quiet = false;
  const auto set_policies = [&spec](const std::string& names) {
    spec.policies.clear();
    for (const std::string& name : cli::split(names, ',')) {
      spec.policies.push_back({name, named_policy_factory(name)});
    }
  };
  const auto set_faults = [&spec](const std::string& names) {
    spec.fault_presets.clear();
    for (const std::string& name : cli::split(names, ',')) {
      spec.fault_presets.push_back(make_fault_preset(name));
    }
  };
  set_policies("capacity,hopper,drf,tetris,carbyne,srpt,svf,dollymp0,dollymp2");
  set_faults("healthy");
  std::vector<cli::Flag> flags =
      run.flags({"--cluster", "--jobs", "--gap", "--gpus", "--slot", "--seed"});
  flags.insert(flags.end(), {
      {"--replications", "R", "environment seeds S, S+1, ..., S+R-1 (default 3)",
       cli::set_number(replications, 1)},
      {"--seeds", "A,B,...", "explicit environment seed list (overrides --replications)",
       cli::set_numbers(spec.seeds, std::uint64_t{0})},
      {"--policies", "a,b,...",
       "capacity hopper drf tetris carbyne srpt svf dollymp0-9 (default: the first seven, "
       "dollymp0 and dollymp2)",
       set_policies},
      {"--faults", "a,b,...", "healthy crash rack failslow copyfault all (default healthy)",
       set_faults},
      {"--threads", "N", "run replications on N workers (0: hardware concurrency, 1: serial)",
       cli::set_number(threads, 0, kMaxThreads)},
      {"--out", "FILE", "write the JSON there instead of stdout", cli::set_text(out)},
      {"--quiet", "", "suppress the timing summary line", cli::set_true(quiet)},
  });
  cli::parse(argc, argv, kAbout, flags);
  spec.cluster = cli::parse_with("--cluster", [&] { return run.make_cluster(); });
  spec.base = run.config;
  if (spec.seeds.empty()) {
    for (int r = 0; r < replications; ++r) {
      spec.seeds.push_back(run.config.seed + static_cast<std::uint64_t>(r));
    }
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(threads));

  try {
    spec.jobs = run.make_jobs(run.config.seed);
    const SweepResult result = run_sweep(spec, pool.get());
    const std::string json = render_sweep_json(result);
    if (out.empty()) {
      std::cout << json;
    } else {
      cli::write_file(out, json);
      if (!quiet) std::cout << "wrote sweep JSON to " << out << "\n";
    }
    if (!quiet) {
      const double rate =
          result.wall_clock_seconds > 0.0
              ? static_cast<double>(result.replications) / result.wall_clock_seconds
              : 0.0;
      std::cerr << "sweep: " << result.replications << " replications ("
                << spec.policies.size() << " policies x " << spec.fault_presets.size()
                << " faults x " << spec.seeds.size() << " seeds) on "
                << (pool ? pool->size() : 1) << " worker(s) in " << result.wall_clock_seconds
                << "s = " << rate << " replications/sec\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
