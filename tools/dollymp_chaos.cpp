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
// and optionally written to a file for artifact upload.  Each seed's
// workload is RunSpec::make_jobs(seed).  `dollymp_chaos --help` lists the
// flags.
//
// Exit status: 0 every scenario passed, 1 one failed, 2 a usage error or
// invalid configuration, 3 a run-time error.
//
// Example:
//   dollymp_chaos --cluster google-trace:3000 --jobs 80 --gap 5 --seeds 1,2
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/experiment.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/policies.h"
#include "dollymp/sim/simulator.h"

namespace {

using namespace dollymp;

/// The flags only this tool has; the shared ones fill a RunSpec.
struct Options {
  std::vector<std::uint64_t> seeds = {1, 2};
  std::vector<SweepFaultPreset> classes;
  std::vector<std::string> policies = {"base", "resilient"};
  double makespan_factor = 50.0;
  double makespan_slack = 1800.0;
  std::string out;
  bool quiet = false;
};

const char* const kAbout =
    "usage: dollymp_chaos [flags]\n"
    "Run fault class x policy x seed scenarios and check five invariants after\n"
    "each: completion, no leaked allocations, copy conservation, makespan\n"
    "bounded by the healthy twin's, and replay determinism.";

/// The two chaos policies are registry calls: "base" is dollymp2,
/// "resilient" dollymp2 with the resilience policies on.
SchedulerFactory make_factory(const std::string& policy) {
  if (policy == "base") return named_policy_factory("dollymp2");
  if (policy == "resilient") {
    DollyMPConfig config;
    config.resilience.enabled = true;
    return named_policy_factory("dollymp2", config);
  }
  throw std::invalid_argument("unknown policy '" + policy + "' (known: base, resilient)");
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
  RunSpec run;
  run.cluster = "paper30";
  run.jobs = 40;
  run.gap = 10.0;
  Options opt;
  const auto set_classes = [&opt](const std::string& names) {
    opt.classes.clear();
    for (const std::string& name : cli::split(names, ',')) {
      opt.classes.push_back(make_fault_preset(name));
    }
  };
  set_classes("crash,rack,failslow,copyfault,all");
  std::vector<cli::Flag> flags = run.flags({"--cluster", "--jobs", "--gap", "--slot"});
  flags.insert(flags.end(), {
      {"--seeds", "S1,S2,...", "environment seeds (default 1,2)",
       cli::set_numbers(opt.seeds, std::uint64_t{0})},
      {"--classes", "LIST",
       "fault presets crash,rack,failslow,copyfault,all (default all five)",
       set_classes},
      {"--policies", "LIST",
       "base (dollymp2) and resilient (dollymp2 with resilience) (default both)",
       [&opt](const std::string& names) {
         opt.policies = cli::split(names, ',');
         for (const std::string& policy : opt.policies) (void)make_factory(policy);
       }},
      {"--makespan-factor", "F", "invariant 4 multiplier (default 50)",
       cli::set_number(opt.makespan_factor, 0.0)},
      {"--makespan-slack", "S", "invariant 4 additive slack, seconds (default 1800)",
       cli::set_number(opt.makespan_slack, 0.0)},
      {"--out", "FILE", "also write the report to FILE", cli::set_text(opt.out)},
      {"--quiet", "", "per-scenario lines only on failure", cli::set_true(opt.quiet)},
  });
  cli::parse(argc, argv, kAbout, flags);
  const Cluster cluster = cli::parse_with("--cluster", [&] { return run.make_cluster(); });

  std::ostringstream report_text;
  bool all_passed = true;
  int scenario_count = 0;
  try {
    for (const std::uint64_t seed : opt.seeds) {
      const std::vector<JobSpec> jobs = run.make_jobs(seed);
      SimConfig healthy = run.config;
      healthy.seed = seed;

      // One healthy twin per (seed, policy): the invariant-4 baseline.
      std::map<std::string, double> healthy_makespan;
      for (const auto& policy : opt.policies) {
        const auto scheduler = make_factory(policy)();
        healthy_makespan[policy] =
            simulate(cluster, healthy, jobs, *scheduler).makespan_seconds;
      }

      for (const SweepFaultPreset& preset : opt.classes) {
        SimConfig faulty = healthy;
        faulty.failures = preset.failures;
        faulty.faults = preset.faults;
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
      cli::write_file(opt.out, report_text.str());
      std::cout << "wrote report to " << opt.out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  return all_passed ? 0 : 1;
}
