// dollymp_chaos — the chaos invariant harness.
//
// Runs a scenario matrix (fault class x resilience policy x seed) against a
// workload and asserts hard invariants after every run:
//
//   1. completion    every job in the workload finished
//   2. no-leak       no CPU/memory/copy allocation survives the last job
//   3. conservation  copies launched == copies finished + copies killed
//   4. bounded       makespan <= healthy-twin makespan * factor + slack
//   5. determinism   a paired re-run produces a bit-identical record stream
//
// Any violated invariant fails the scenario; any failed scenario makes the
// process exit 1, so CI can gate on the whole matrix.  A per-scenario
// report (pass/fail per invariant plus availability counters) is printed
// and optionally written to a file for artifact upload.
//
//   dollymp_chaos [options]
//     --cluster paper30 | google[:N] | google-trace[:N] | gpu[:N] |
//               uniform:N:CPU:MEM                       (default paper30)
//     --jobs N             trace-model jobs per scenario        (default 40)
//     --gap SECONDS        mean Poisson inter-arrival gap       (default 10)
//     --slot SECONDS       slot length                          (default 5)
//     --seeds S1,S2,...    environment seeds                    (default 1,2)
//     --classes LIST       comma list of fault presets: crash,rack,
//                          failslow,copyfault,all (default: all five)
//     --policies LIST      comma list of base,resilient         (default both):
//                          dollymp2, and dollymp2 with resilience
//     --makespan-factor F  invariant 4 multiplier               (default 50)
//     --makespan-slack S   invariant 4 additive slack, seconds  (default 1800)
//     --out FILE           also write the report to FILE
//     --quiet              per-scenario lines only on failure
//     --help
//
// Flags also accept --flag=value.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/policies.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace {

using namespace dollymp;

struct Options {
  std::string cluster = "paper30";
  int jobs = 40;
  double gap = 10.0;
  double slot = 5.0;
  std::vector<std::uint64_t> seeds = {1, 2};
  std::vector<std::string> classes = {"crash", "rack", "failslow", "copyfault", "all"};
  std::vector<std::string> policies = {"base", "resilient"};
  double makespan_factor = 50.0;
  double makespan_slack = 1800.0;
  std::string out;
  bool quiet = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: dollymp_chaos [--cluster paper30|google[:N]|google-trace[:N]|gpu[:N]|\n"
      "                               uniform:N:CPU:MEM]\n"
      "                     [--jobs N] [--gap SECONDS] [--slot SECONDS]\n"
      "                     [--seeds S1,S2,...]\n"
      "                     [--classes crash,rack,failslow,copyfault,all]\n"
      "                     [--policies base,resilient]\n"
      "                     [--makespan-factor F] [--makespan-slack SECONDS]\n"
      "                     [--out FILE] [--quiet]\n";
  std::exit(code);
}

using cli::split;

const std::vector<std::string> kKnownFlags = {
    "--help",      "--cluster",         "--jobs",           "--gap",
    "--slot",      "--seeds",           "--classes",        "--policies",
    "--makespan-factor", "--makespan-slack", "--out",       "--quiet"};

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
    else if (arg == "--slot") opt.slot = cli::parse_flag("--slot", need_value(i), 0.0);
    else if (arg == "--seeds") {
      opt.seeds.clear();
      for (const auto& s : split(need_value(i), ',')) {
        opt.seeds.push_back(cli::parse_flag("--seeds", s, std::uint64_t{0}));
      }
    } else if (arg == "--classes") opt.classes = split(need_value(i), ',');
    else if (arg == "--policies") opt.policies = split(need_value(i), ',');
    else if (arg == "--makespan-factor") {
      opt.makespan_factor = cli::parse_flag("--makespan-factor", need_value(i), 0.0);
    } else if (arg == "--makespan-slack") {
      opt.makespan_slack = cli::parse_flag("--makespan-slack", need_value(i), 0.0);
    }
    else if (arg == "--out") opt.out = need_value(i);
    else if (arg == "--quiet") opt.quiet = true;
    else {
      std::cerr << cli::unknown_flag_message(arg, kKnownFlags) << "\n";
      usage(2);
    }
  }
  if (opt.seeds.empty() || opt.classes.empty() || opt.policies.empty()) {
    std::cerr << "--seeds/--classes/--policies must be non-empty\n";
    usage(2);
  }
  return opt;
}

/// The two chaos policies are registry calls: "base" is dollymp2,
/// "resilient" dollymp2 with the resilience policies on.
SchedulerFactory make_factory(const std::string& policy) {
  if (policy == "base") return named_policy_factory("dollymp2");
  if (policy == "resilient") {
    DollyMPConfig config;
    config.resilience.enabled = true;
    return named_policy_factory("dollymp2", config);
  }
  std::cerr << "unknown policy '" << policy << "'\n";
  usage(2);
}

struct ScenarioReport {
  std::string name;
  bool completion = false;
  bool no_leak = false;
  bool conservation = false;
  bool bounded = false;
  bool deterministic = false;
  double makespan = 0.0;
  double healthy_makespan = 0.0;
  SimStats stats;
  std::string detail;

  [[nodiscard]] bool passed() const {
    return completion && no_leak && conservation && bounded && deterministic;
  }
};

std::string render(const ScenarioReport& r) {
  auto mark = [](bool ok) { return ok ? "ok" : "FAIL"; };
  std::ostringstream os;
  os << (r.passed() ? "PASS " : "FAIL ") << r.name
     << "  completion=" << mark(r.completion) << " no-leak=" << mark(r.no_leak)
     << " conservation=" << mark(r.conservation) << " bounded=" << mark(r.bounded)
     << " determinism=" << mark(r.deterministic) << "  makespan=" << r.makespan
     << "s (healthy " << r.healthy_makespan
     << "s) fault-kills=" << r.stats.copies_killed_by_faults
     << " retries=" << r.stats.retries_issued
     << " quarantines=" << r.stats.servers_quarantined;
  if (!r.detail.empty()) os << "\n       " << r.detail;
  return os.str();
}

ScenarioReport run_scenario(const Cluster& cluster, const SimConfig& faulty_config,
                            double healthy_makespan, const std::vector<JobSpec>& jobs,
                            const std::string& policy, const Options& opt) {
  ScenarioReport report;
  const SchedulerFactory factory = make_factory(policy);
  std::ostringstream detail;

  const auto scheduler = factory();
  const SimResult result = simulate(cluster, faulty_config, jobs, *scheduler);
  report.makespan = result.makespan_seconds;
  report.healthy_makespan = healthy_makespan;
  report.stats = result.stats;

  // 1. Every job completes.  The simulator only returns when all jobs are
  // done, but verify from the records rather than trusting the loop exit.
  report.completion = result.jobs.size() == jobs.size();
  for (const auto& j : result.jobs) {
    if (j.finish_seconds < j.arrival_seconds || j.first_start_seconds < 0.0) {
      report.completion = false;
      detail << "job " << j.id << " finish=" << j.finish_seconds << " arrival="
             << j.arrival_seconds << "; ";
    }
  }
  if (result.jobs.size() != jobs.size()) {
    detail << "finished " << result.jobs.size() << "/" << jobs.size() << " jobs; ";
  }

  // 2. No leaked allocations at run end.
  report.no_leak = result.stats.leaked_cpu == 0.0 && result.stats.leaked_mem == 0.0 &&
                   result.stats.leaked_active_copies == 0;
  if (!report.no_leak) {
    detail << "leaked cpu=" << result.stats.leaked_cpu
           << " mem=" << result.stats.leaked_mem
           << " copies=" << result.stats.leaked_active_copies << "; ";
  }

  // 3. Copy conservation: every launched copy either finished or was killed.
  report.conservation = result.total_copies_launched ==
                        result.stats.copies_finished + result.stats.copies_killed;
  if (!report.conservation) {
    detail << "launched=" << result.total_copies_launched
           << " finished=" << result.stats.copies_finished
           << " killed=" << result.stats.copies_killed << "; ";
  }

  // 4. Bounded degradation versus the healthy twin.
  const double bound = healthy_makespan * opt.makespan_factor + opt.makespan_slack;
  report.bounded = result.makespan_seconds <= bound;
  if (!report.bounded) {
    detail << "makespan " << result.makespan_seconds << "s exceeds bound " << bound
           << "s; ";
  }

  // 5. Replay determinism: the same config twice must produce a
  // bit-identical flight-recorder stream.
  const DivergenceReport replay = verify_replay(cluster, faulty_config, jobs, factory);
  report.deterministic = replay.identical;
  if (!replay.identical) detail << "replay: " << replay.to_string() << "; ";

  report.detail = detail.str();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const Cluster cluster =
      cli::parse_with("--cluster", [&] { return Cluster::from_spec(opt.cluster); });
  std::vector<SweepFaultPreset> presets;
  for (const auto& cls : opt.classes) {
    presets.push_back(cli::parse_with("--classes", [&] { return make_fault_preset(cls); }));
  }

  std::ostringstream report_text;
  bool all_passed = true;
  int scenario_count = 0;

  for (const std::uint64_t seed : opt.seeds) {
    TraceModel model({}, seed);
    std::vector<JobSpec> jobs = model.sample_jobs(opt.jobs);
    assign_poisson_arrivals(jobs, opt.gap, seed + 1);

    SimConfig healthy;
    healthy.slot_seconds = opt.slot;
    healthy.seed = seed;
    healthy.validate();

    // One healthy twin per (seed, policy): the invariant-4 baseline.
    std::map<std::string, double> healthy_makespan;
    for (const auto& policy : opt.policies) {
      const auto scheduler = make_factory(policy)();
      healthy_makespan[policy] =
          simulate(cluster, healthy, jobs, *scheduler).makespan_seconds;
    }

    for (const SweepFaultPreset& preset : presets) {
      SimConfig faulty = healthy;
      faulty.failures = preset.failures;
      faulty.faults = preset.faults;
      faulty.validate();
      for (const auto& policy : opt.policies) {
        ScenarioReport report =
            run_scenario(cluster, faulty, healthy_makespan[policy], jobs, policy, opt);
        report.name = preset.name + "/" + policy + "/seed" + std::to_string(seed);
        ++scenario_count;
        all_passed = all_passed && report.passed();
        const std::string line = render(report);
        report_text << line << "\n";
        if (!opt.quiet || !report.passed()) std::cout << line << "\n";
      }
    }
  }

  const std::string verdict =
      std::string(all_passed ? "CHAOS PASS" : "CHAOS FAIL") + ": " +
      std::to_string(scenario_count) + " scenarios (" +
      std::to_string(opt.classes.size()) + " fault classes x " +
      std::to_string(opt.policies.size()) + " policies x " +
      std::to_string(opt.seeds.size()) + " seeds)";
  report_text << verdict << "\n";
  std::cout << verdict << "\n";

  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    if (!out || !(out << report_text.str())) {
      std::cerr << "cannot write " << opt.out << "\n";
      return 3;
    }
    std::cout << "wrote report to " << opt.out << "\n";
  }
  return all_passed ? 0 : 1;
}
