// dollymp_service — driver for the long-running service layer.
//
// Runs a streaming simulation (unbounded open-loop arrivals) instead of a
// finite batch, with verifiable checkpoint/restore and copy-on-write
// what-if forks.  Two modes:
//
//   * One-shot: advance a session to --horizon slots, optionally writing
//     periodic and/or final checkpoints, and print a status summary.
//   * Scripted/REPL (--script FILE or --repl): drive the session with
//     commands, fork divergent futures, advance them in parallel on the
//     thread pool, and emit byte-deterministic comparison JSON.
//
//   dollymp_service [options]
//     --cluster paper30 | google[:N] | google-trace[:N] | gpu[:N] |
//               uniform:N:CPU:MEM                      (default google:100)
//     --policy NAME         capacity|hopper|drf|tetris|carbyne|srpt|svf|
//                           dollymp0-9                (default dollymp2)
//     --rate R              mean arrivals per second   (default 0.05)
//     --diurnal AMP[:PERIOD]  sinusoidal rate modulation (amplitude in
//                           [0,1); period seconds, default 86400)
//     --flash MULT:START:DURATION  flash-crowd surge (multiplier >= 1)
//     --mean-gb X           mean job input size        (default 2)
//     --seed S              simulation seed            (default 1)
//     --arrival-seed S      arrival stream seed        (default 1)
//     --slot SECONDS        slot length                (default 5)
//     --pump SLOTS          arrival pump chunk         (default 256)
//     --failures MTBF:REPAIR  enable machine failures (seconds)
//     --horizon SLOTS       one-shot run length        (default 2000)
//     --checkpoint FILE     write a checkpoint at the horizon
//     --checkpoint-every SECONDS  periodic checkpoints to FILE.<n>
//     --restore FILE        restore the session from a checkpoint first
//     --script FILE         run commands from FILE
//     --repl                read commands from stdin
//     --json                print the final status as JSON
//     --help
//
// Overload protection (DESIGN.md §4.9; all off by default):
//     --admission           enable the admission gate (token bucket +
//                           watermark shedding)
//     --bucket RATE:BURST   token-bucket rate cap (jobs/second, burst jobs)
//     --watermarks HIGH:LOW live-jobs-per-live-server shed watermarks
//     --shed-fraction F     fraction of sheddable arrivals dropped while
//                           latched (error-diffused), in [0,1]
//     --tenants N:PROTECTED tenant classes (job id % N) and how many top
//                           classes ride through watermark shedding
//     --governor            enable the SLO degradation ladder
//     --slo-p99 SECONDS     p99 response-time target (0 = load-only)
//     --slo-window N        sliding-window sample count
//
// Supervised crash-safe mode:
//     --supervise           run the session in a supervised child process,
//                           auto-restarting from the newest valid snapshot
//     --snapshot-base PATH  rotation base (PATH.latest / PATH.prev /
//                           PATH.progress); required with --supervise
//     --snapshot-every SLOTS  snapshot stride (multiple of --pump;
//                           default 4 * pump)
//     --max-restarts N      restart budget             (default 8)
//     --watchdog SECONDS    no-progress watchdog       (default 30)
//     --resume-from FILE    first child resumes from this snapshot
//                           (quarantined snapshots are refused)
//     --kill-at S1,S2,...   test hook: child k SIGKILLs itself at slot Sk
//
// Script commands:
//     run SLOTS             advance the parent session
//     status                print a status line for every session
//     checkpoint PATH       write the parent's checkpoint
//     fork NAME [policy=NAME] [quarantine=ID,ID,...]
//                           create a what-if fork of the parent
//     advance SLOTS         advance parent and all forks in parallel
//     compare               print comparison JSON (parent + forks)
//     quit
// SLOTS is a non-negative integer.  A --script stops at its first failing
// command and exits 3; --repl reports the error and reads on.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/cli.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/service/session.h"
#include "dollymp/service/supervisor.h"

namespace {

using namespace dollymp;

struct Options {
  std::string cluster = "google:100";
  std::string policy = "dollymp2";
  double rate = 0.05;
  double diurnal_amplitude = 0.0;
  double diurnal_period = 86400.0;
  double flash_multiplier = 1.0;
  double flash_start = -1.0;
  double flash_duration = 0.0;
  double mean_gb = 2.0;
  std::uint64_t seed = 1;
  std::uint64_t arrival_seed = 1;
  double slot = 5.0;
  SimTime pump = 256;
  double failure_mtbf = 0.0;
  double failure_repair = 0.0;
  SimTime horizon = 2000;
  std::string checkpoint;
  double checkpoint_every = -1.0;
  std::string restore;
  std::string script;
  bool repl = false;
  bool json = false;
  // Overload protection.
  bool admission = false;
  double bucket_rate = 0.0;
  double bucket_burst = 32.0;
  double high_watermark = 4.0;
  double low_watermark = 2.0;
  double shed_fraction = 1.0;
  int tenant_classes = 4;
  int protected_classes = 1;
  bool governor = false;
  double slo_p99 = 0.0;
  int slo_window = 512;
  // Supervised mode.
  bool supervise = false;
  std::string snapshot_base;
  SimTime snapshot_every = 0;  // 0: default to 4 * pump
  int max_restarts = 8;
  double watchdog = 30.0;
  std::string resume_from;
  std::vector<SimTime> kill_at;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: dollymp_service [--cluster paper30|google[:N]|google-trace[:N]|gpu[:N]|\n"
      "                                 uniform:N:CPU:MEM]\n"
      "                       [--policy NAME] [--rate R] [--diurnal AMP[:PERIOD]]\n"
      "                       [--flash MULT:START:DURATION] [--mean-gb X]\n"
      "                       [--seed S] [--arrival-seed S] [--slot SECONDS]\n"
      "                       [--pump SLOTS] [--failures MTBF:REPAIR]\n"
      "                       [--horizon SLOTS] [--checkpoint FILE]\n"
      "                       [--checkpoint-every SECONDS] [--restore FILE]\n"
      "                       [--script FILE] [--repl] [--json]\n"
      "                       [--admission] [--bucket RATE:BURST]\n"
      "                       [--watermarks HIGH:LOW] [--shed-fraction F]\n"
      "                       [--tenants N:PROTECTED] [--governor]\n"
      "                       [--slo-p99 SECONDS] [--slo-window N]\n"
      "                       [--supervise] [--snapshot-base PATH]\n"
      "                       [--snapshot-every SLOTS] [--max-restarts N]\n"
      "                       [--watchdog SECONDS] [--resume-from FILE]\n"
      "                       [--kill-at S1,S2,...]\n"
      "\n"
      "script commands: run N | status | checkpoint PATH |\n"
      "                 fork NAME [policy=P] [quarantine=ID,ID,...] |\n"
      "                 advance N | compare | quit\n";
  std::exit(code);
}

const std::vector<std::string> kKnownFlags = {
    "--help",      "--cluster",  "--policy",       "--rate",
    "--diurnal",   "--flash",    "--mean-gb",      "--seed",
    "--arrival-seed", "--slot",  "--pump",
    "--failures",  "--horizon",  "--checkpoint",   "--checkpoint-every",
    "--restore",   "--script",   "--repl",         "--json",
    "--admission", "--bucket",   "--watermarks",   "--shed-fraction",
    "--tenants",   "--governor", "--slo-p99",      "--slo-window",
    "--supervise", "--snapshot-base", "--snapshot-every", "--max-restarts",
    "--watchdog",  "--resume-from",   "--kill-at"};

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
    else if (arg == "--policy") {
      // Checked here, so a bad name is a usage error like in the other tools.
      opt.policy = need_value(i);
      (void)cli::parse_with("--policy", [&] { return named_policy_factory(opt.policy); });
    }
    else if (arg == "--rate") opt.rate = cli::parse_flag("--rate", need_value(i), 0.0);
    else if (arg == "--diurnal") {
      const auto parts = cli::split(need_value(i), ':');
      opt.diurnal_amplitude = cli::parse_flag("--diurnal", parts[0], 0.0);
      if (parts.size() > 1) opt.diurnal_period = cli::parse_flag("--diurnal", parts[1], 0.0);
    } else if (arg == "--flash") {
      const auto parts = cli::split(need_value(i), ':');
      if (parts.size() != 3) {
        std::cerr << "--flash wants MULT:START:DURATION\n";
        usage(2);
      }
      opt.flash_multiplier = cli::parse_flag("--flash", parts[0], 0.0);
      opt.flash_start = cli::parse_flag("--flash", parts[1], 0.0);
      opt.flash_duration = cli::parse_flag("--flash", parts[2], 0.0);
    } else if (arg == "--mean-gb") opt.mean_gb = cli::parse_flag("--mean-gb", need_value(i), 0.0);
    else if (arg == "--seed") opt.seed = cli::parse_flag("--seed", need_value(i), std::uint64_t{0});
    else if (arg == "--arrival-seed") {
      opt.arrival_seed = cli::parse_flag("--arrival-seed", need_value(i), std::uint64_t{0});
    } else if (arg == "--slot") opt.slot = cli::parse_flag("--slot", need_value(i), 0.0);
    else if (arg == "--pump") opt.pump = cli::parse_flag("--pump", need_value(i), SimTime{1});
    else if (arg == "--failures") {
      const auto parts = cli::split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--failures wants MTBF:REPAIR seconds\n";
        usage(2);
      }
      opt.failure_mtbf = cli::parse_flag("--failures", parts[0], 0.0);
      opt.failure_repair = cli::parse_flag("--failures", parts[1], 0.0);
    } else if (arg == "--horizon") {
      opt.horizon = cli::parse_flag("--horizon", need_value(i), SimTime{0});
    }
    else if (arg == "--checkpoint") opt.checkpoint = need_value(i);
    else if (arg == "--checkpoint-every") {
      opt.checkpoint_every = cli::parse_flag("--checkpoint-every", need_value(i), 0.0);
    }
    else if (arg == "--restore") opt.restore = need_value(i);
    else if (arg == "--script") opt.script = need_value(i);
    else if (arg == "--repl") opt.repl = true;
    else if (arg == "--json") opt.json = true;
    else if (arg == "--admission") opt.admission = true;
    else if (arg == "--bucket") {
      const auto parts = cli::split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--bucket wants RATE:BURST\n";
        usage(2);
      }
      opt.bucket_rate = cli::parse_flag("--bucket", parts[0], 0.0);
      opt.bucket_burst = cli::parse_flag("--bucket", parts[1], 0.0);
    } else if (arg == "--watermarks") {
      const auto parts = cli::split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--watermarks wants HIGH:LOW\n";
        usage(2);
      }
      opt.high_watermark = cli::parse_flag("--watermarks", parts[0], 0.0);
      opt.low_watermark = cli::parse_flag("--watermarks", parts[1], 0.0);
    } else if (arg == "--shed-fraction") {
      opt.shed_fraction = cli::parse_flag("--shed-fraction", need_value(i), 0.0);
    }
    else if (arg == "--tenants") {
      const auto parts = cli::split(need_value(i), ':');
      if (parts.size() != 2) {
        std::cerr << "--tenants wants N:PROTECTED\n";
        usage(2);
      }
      opt.tenant_classes = cli::parse_flag("--tenants", parts[0], 1);
      opt.protected_classes = cli::parse_flag("--tenants", parts[1], 0);
    } else if (arg == "--governor") opt.governor = true;
    else if (arg == "--slo-p99") opt.slo_p99 = cli::parse_flag("--slo-p99", need_value(i), 0.0);
    else if (arg == "--slo-window") {
      opt.slo_window = cli::parse_flag("--slo-window", need_value(i), 1);
    }
    else if (arg == "--supervise") opt.supervise = true;
    else if (arg == "--snapshot-base") opt.snapshot_base = need_value(i);
    else if (arg == "--snapshot-every") {
      opt.snapshot_every = cli::parse_flag("--snapshot-every", need_value(i), SimTime{0});
    } else if (arg == "--max-restarts") {
      opt.max_restarts = cli::parse_flag("--max-restarts", need_value(i), 0);
    } else if (arg == "--watchdog") {
      opt.watchdog = cli::parse_flag("--watchdog", need_value(i), 0.0);
    }
    else if (arg == "--resume-from") opt.resume_from = need_value(i);
    else if (arg == "--kill-at") {
      for (const auto& slot : cli::split(need_value(i), ',')) {
        opt.kill_at.push_back(cli::parse_flag("--kill-at", slot, SimTime{0}));
      }
    } else {
      std::cerr << cli::unknown_flag_message(arg, kKnownFlags) << "\n";
      usage(2);
    }
  }
  return opt;
}

ServiceConfig make_service_config(const Options& opt) {
  ServiceConfig config;
  config.sim.seed = opt.seed;
  config.sim.slot_seconds = opt.slot;
  if (opt.failure_mtbf > 0.0) {
    config.sim.failures.enabled = true;
    config.sim.failures.mean_time_to_failure_seconds = opt.failure_mtbf;
    config.sim.failures.mean_repair_seconds = opt.failure_repair;
  }
  config.arrivals.rate_per_second = opt.rate;
  config.arrivals.diurnal_amplitude = opt.diurnal_amplitude;
  config.arrivals.diurnal_period_seconds = opt.diurnal_period;
  config.arrivals.flash_multiplier = opt.flash_multiplier;
  config.arrivals.flash_start_seconds = opt.flash_start;
  config.arrivals.flash_duration_seconds = opt.flash_duration;
  config.arrivals.mean_input_gb = opt.mean_gb;
  config.arrivals.seed = opt.arrival_seed;
  config.policy = opt.policy;
  config.pump_slots = opt.pump;
  config.checkpoint_interval_seconds = opt.checkpoint_every;
  config.overload.admission_enabled = opt.admission;
  config.overload.bucket_rate_per_second = opt.bucket_rate;
  config.overload.bucket_burst = opt.bucket_burst;
  config.overload.high_watermark = opt.high_watermark;
  config.overload.low_watermark = opt.low_watermark;
  config.overload.shed_fraction = opt.shed_fraction;
  config.overload.num_tenant_classes = opt.tenant_classes;
  config.overload.protected_classes = opt.protected_classes;
  config.overload.governor_enabled = opt.governor;
  config.overload.slo_target_p99_seconds = opt.slo_p99;
  config.overload.slo_window_size = opt.slo_window;
  return config;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Fixed-format double so comparison JSON is byte-deterministic.
std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

struct Fleet {
  std::unique_ptr<Session> parent;
  std::vector<std::pair<std::string, std::unique_ptr<Session>>> forks;
};

std::string session_json(const std::string& name, const Session& session) {
  const StreamTotals& totals = session.totals();
  const double mean_response =
      totals.jobs_completed > 0
          ? totals.response_seconds_sum / static_cast<double>(totals.jobs_completed)
          : 0.0;
  std::ostringstream os;
  os << "{\"name\":\"" << name << "\",\"policy\":\"" << session.policy_name()
     << "\",\"clock\":" << session.clock() << ",\"live_jobs\":" << session.live_jobs()
     << ",\"jobs_ingested\":" << totals.jobs_ingested
     << ",\"jobs_completed\":" << totals.jobs_completed
     << ",\"mean_response_s\":" << fixed6(mean_response)
     << ",\"clones_launched\":" << totals.clones_launched
     << ",\"stream_records\":" << session.records_written()
     << ",\"stream_hash\":\"" << hex64(session.stream_hash()) << "\"}";
  return os.str();
}

void print_compare(const Fleet& fleet, std::ostream& os) {
  os << "{\"clock\":" << fleet.parent->clock() << ",\"sessions\":[";
  os << session_json("parent", *fleet.parent);
  for (const auto& [name, session] : fleet.forks) {
    os << "," << session_json(name, *session);
  }
  os << "]}\n";
}

void print_status(const Fleet& fleet, std::ostream& os) {
  auto line = [&os](const std::string& name, const Session& s) {
    const StreamTotals& totals = s.totals();
    os << name << " [" << s.policy_name() << "] clock=" << s.clock()
       << " live=" << s.live_jobs() << " ingested=" << totals.jobs_ingested
       << " completed=" << totals.jobs_completed
       << " segments=" << s.spec_segments() << " hash=" << hex64(s.stream_hash())
       << "\n";
  };
  line("parent", *fleet.parent);
  for (const auto& [name, session] : fleet.forks) line(name, *session);
}

/// Advance the parent and every fork to `target` slots, each on its own
/// pool worker.  Sessions share only immutable spec segments, so the runs
/// are independent; results stay deterministic because each session's
/// stream depends only on its own state.
void advance_all(Fleet& fleet, SimTime target, ThreadPool& pool) {
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([&fleet, target] { fleet.parent->run_until(target); }));
  for (auto& [name, session] : fleet.forks) {
    Session* raw = session.get();
    futures.push_back(pool.submit([raw, target] { raw->run_until(target); }));
  }
  for (auto& future : futures) future.get();
}

/// The slot count argument of `run` / `advance`: one whole non-negative
/// integer token, nothing after it.
SimTime slot_count(std::istringstream& ls, const std::string& command) {
  std::string token;
  std::string extra;
  if (!(ls >> token)) throw std::invalid_argument(command + " wants a slot count");
  const SimTime slots = cli::parse_number(command, token, SimTime{0});
  if (ls >> extra) {
    throw std::invalid_argument(command + ": unexpected '" + extra + "' after the slot count");
  }
  return slots;
}

/// Execute commands from `in`.  A script (`interactive` false) echoes each
/// command and stops at the first error with exit code 3; the interactive
/// REPL reports the error and reads on.
int run_script(Fleet& fleet, std::istream& in, bool interactive) {
  ThreadPool pool;
  std::string line;
  while (std::getline(in, line)) {
    // Strip comments and blank lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string command;
    if (!(ls >> command)) continue;
    if (!interactive) std::cout << "> " << line << "\n";
    try {
      if (command == "quit" || command == "exit") break;
      if (command == "run") {
        const SimTime slots = slot_count(ls, command);
        fleet.parent->run_until(fleet.parent->clock() + slots);
      } else if (command == "advance") {
        const SimTime slots = slot_count(ls, command);
        advance_all(fleet, fleet.parent->clock() + slots, pool);
      } else if (command == "status") {
        print_status(fleet, std::cout);
      } else if (command == "checkpoint") {
        std::string path;
        ls >> path;
        fleet.parent->checkpoint(path);
        std::cout << "wrote checkpoint " << path << "\n";
      } else if (command == "fork") {
        std::string name;
        ls >> name;
        if (name.empty()) throw std::invalid_argument("fork wants a name");
        Session::ForkOptions fork_options;
        std::string option;
        while (ls >> option) {
          if (option.rfind("policy=", 0) == 0) {
            fork_options.policy = option.substr(7);
          } else if (option.rfind("quarantine=", 0) == 0) {
            for (const auto& id : cli::split(option.substr(11), ',')) {
              fork_options.quarantine.push_back(cli::parse_number("quarantine", id, 0));
            }
          } else {
            throw std::invalid_argument("unknown fork option '" + option + "'");
          }
        }
        fleet.forks.emplace_back(name, fleet.parent->fork(fork_options));
        std::cout << "forked " << name << " at clock " << fleet.parent->clock()
                  << "\n";
      } else if (command == "compare") {
        print_compare(fleet, std::cout);
      } else {
        throw std::invalid_argument("unknown command '" + command + "'");
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      if (!interactive) return 3;
    }
  }
  return 0;
}

/// Supervised one-shot: run the session in a babysat child process and
/// print the final progress as one deterministic JSON line.  The JSON is
/// byte-identical for any --kill-at schedule, which is what the CI recovery
/// gate compares.
int run_supervise(const Options& opt, const ServiceConfig& config,
                  const Cluster& cluster) {
  if (opt.snapshot_base.empty()) {
    std::cerr << "--supervise requires --snapshot-base PATH\n";
    return 2;
  }
  SupervisorOptions sup;
  sup.snapshot_base = opt.snapshot_base;
  sup.horizon_slots = opt.horizon;
  sup.checkpoint_stride_slots =
      opt.snapshot_every > 0 ? opt.snapshot_every : 4 * opt.pump;
  sup.max_restarts = opt.max_restarts;
  sup.watchdog_seconds = opt.watchdog;
  sup.resume_from = opt.resume_from;
  sup.kill_at_slots = opt.kill_at;
  const SupervisorResult result = run_supervised(cluster, config, sup);
  std::cout << "{\"clock\":" << result.final_clock << ",\"stream_hash\":\""
            << hex64(result.stream_hash)
            << "\",\"stream_records\":" << result.records_written
            << ",\"jobs_ingested\":" << result.jobs_ingested
            << ",\"jobs_completed\":" << result.jobs_completed
            << ",\"arrivals_shed\":" << result.arrivals_shed
            << ",\"restarts\":" << result.restarts
            << ",\"snapshots_quarantined\":" << result.snapshots_quarantined
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const ServiceConfig config = make_service_config(opt);
  const Cluster cluster =
      cli::parse_with("--cluster", [&] { return Cluster::from_spec(opt.cluster); });

  if (opt.supervise) {
    try {
      return run_supervise(opt, config, cluster);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 3;
    }
  }

  Fleet fleet;
  try {
    if (!opt.restore.empty()) {
      fleet.parent = Session::restore(cluster, config, opt.restore);
      std::cerr << "restored from " << opt.restore << " at clock "
                << fleet.parent->clock() << "\n";
    } else {
      fleet.parent = std::make_unique<Session>(cluster, config);
    }

    if (!opt.script.empty()) {
      std::ifstream file(opt.script);
      if (!file) {
        std::cerr << "cannot open script " << opt.script << "\n";
        return 2;
      }
      return run_script(fleet, file, /*interactive=*/false);
    }
    if (opt.repl) return run_script(fleet, std::cin, /*interactive=*/true);

    // One-shot: advance to the horizon in pump-sized strides, cutting
    // periodic checkpoints when asked.
    int checkpoint_index = 0;
    double next_checkpoint_seconds =
        opt.checkpoint_every > 0.0 ? opt.checkpoint_every : -1.0;
    while (fleet.parent->clock() < opt.horizon) {
      const SimTime stride =
          std::min<SimTime>(opt.horizon, fleet.parent->clock() + config.pump_slots);
      fleet.parent->run_until(stride);
      if (next_checkpoint_seconds > 0.0 && !opt.checkpoint.empty() &&
          static_cast<double>(fleet.parent->clock()) * config.sim.slot_seconds >=
              next_checkpoint_seconds) {
        const std::string path =
            opt.checkpoint + "." + std::to_string(checkpoint_index++);
        fleet.parent->checkpoint(path);
        std::cerr << "wrote checkpoint " << path << "\n";
        next_checkpoint_seconds += opt.checkpoint_every;
      }
    }
    if (!opt.checkpoint.empty() && opt.checkpoint_every <= 0.0) {
      fleet.parent->checkpoint(opt.checkpoint);
      std::cerr << "wrote checkpoint " << opt.checkpoint << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }

  if (opt.json) {
    print_compare(fleet, std::cout);
  } else {
    print_status(fleet, std::cout);
  }
  return 0;
}
