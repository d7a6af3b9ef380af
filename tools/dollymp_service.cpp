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
// `dollymp_service --help` lists the flags, among them overload
// protection (DESIGN.md §4.9; all off by default) and the supervised
// crash-safe mode (--supervise: the session runs in a child process that
// is restarted from the newest valid snapshot).
//
// Exit status: 0 success, 2 a usage error or invalid configuration, 3 a
// run-time error (a failing --script command included).
//
// Examples:
//   dollymp_service --cluster paper30 --rate 0.1 --horizon 120 --checkpoint s.ckpt
//   dollymp_service --cluster paper30 --rate 0.1 --restore s.ckpt --horizon 240 --json
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
#include "dollymp/common/experiment.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/service/session.h"
#include "dollymp/service/supervisor.h"

namespace {

using namespace dollymp;

/// The flags only this tool has; the shared ones fill a RunSpec, the rest
/// a ServiceConfig or the SupervisorOptions.
struct Options {
  std::string checkpoint;
  std::string restore;
  std::string script;
  bool repl = false;
  bool json = false;
  bool supervise = false;
};

const char* const kAbout =
    "usage: dollymp_service [flags]\n"
    "Stream open-loop arrivals through a session to --horizon slots, or drive it\n"
    "with script commands: run N | status | checkpoint PATH |\n"
    "fork NAME [policy=P] [quarantine=ID,ID,...] | advance N | compare | quit";

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
       << " specs=" << s.specs_retained() << " hash=" << hex64(s.stream_hash())
       << "\n";
  };
  line("parent", *fleet.parent);
  for (const auto& [name, session] : fleet.forks) line(name, *session);
}

/// Advance the parent and every fork to `target` slots, each on its own
/// pool worker.  Sessions share only immutable spec chunks, so the runs
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
void run_supervise(const Cluster& cluster, const ServiceConfig& config,
                   const SupervisorOptions& sup) {
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
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec run;
  run.cluster = "google:100";
  ServiceConfig config;
  config.arrivals.rate_per_second = 0.05;
  SupervisorOptions sup;
  sup.horizon_slots = 2000;
  Options opt;
  // A row writing `config` validates it, so a value the session would
  // refuse is a usage error naming the flag.
  const auto service = [&config](auto set) { return cli::validated(config, set); };
  const auto number = [](const std::string& text) { return cli::parse_number("", text, 0.0); };
  ArrivalConfig& arrivals = config.arrivals;
  OverloadConfig& overload = config.overload;
  std::vector<cli::Flag> flags = run.flags({"--cluster", "--seed", "--slot", "--failures"});
  flags.insert(flags.end(), {
      {"--policy", "NAME",
       "capacity | hopper | drf | tetris | carbyne | srpt | svf | dollymp<K> "
       "(default dollymp2)",
       service([&](const std::string& name) { config.policy = name; })},
      {"--rate", "R", "mean arrivals per second (default 0.05)",
       service([&](const std::string& text) { arrivals.rate_per_second = number(text); })},
      {"--diurnal", "AMP[:PERIOD]",
       "sinusoidal rate modulation, amplitude in [0,1), period seconds (default 86400)",
       service([&](const std::string& text) {
         const auto parts = cli::split(text, ':');
         if (parts.size() > 2) throw std::invalid_argument("'" + text + "' wants AMP[:PERIOD]");
         arrivals.diurnal_amplitude = number(parts[0]);
         if (parts.size() == 2) arrivals.diurnal_period_seconds = number(parts[1]);
       })},
      {"--flash", "MULT:START:DURATION", "flash-crowd surge (multiplier >= 1)",
       service([&](const std::string& text) {
         const auto parts = cli::split_n(text, ':', 3);
         arrivals.flash_multiplier = number(parts[0]);
         arrivals.flash_start_seconds = number(parts[1]);
         arrivals.flash_duration_seconds = number(parts[2]);
       })},
      {"--mean-gb", "X", "mean job input size (default 2)",
       service([&](const std::string& text) { arrivals.mean_input_gb = number(text); })},
      {"--arrival-seed", "S", "arrival stream seed (default 1)",
       cli::set_number(arrivals.seed, std::uint64_t{0})},
      {"--pump", "SLOTS", "arrival pump chunk (default 256)",
       cli::set_number(config.pump_slots, SimTime{1})},
      {"--horizon", "SLOTS", "one-shot run length (default 2000)",
       cli::set_number(sup.horizon_slots, SimTime{0})},
      {"--checkpoint", "FILE", "write a checkpoint at the horizon",
       cli::set_text(opt.checkpoint)},
      {"--checkpoint-every", "SECONDS", "periodic checkpoints to FILE.<n> instead",
       service([&](const std::string& text) {
         config.checkpoint_interval_seconds = number(text);
       })},
      {"--restore", "FILE", "restore the session from a checkpoint first",
       cli::set_text(opt.restore)},
      {"--script", "FILE", "run commands from FILE; stop at the first failing one (exit 3)",
       cli::set_text(opt.script)},
      {"--repl", "", "read commands from stdin; report errors and read on",
       cli::set_true(opt.repl)},
      {"--json", "", "print the final status as JSON", cli::set_true(opt.json)},
      {"--admission", "", "enable the admission gate (token bucket, watermark shedding)",
       cli::set_true(overload.admission_enabled)},
      {"--bucket", "RATE:BURST", "token-bucket rate cap, jobs/second and burst jobs",
       service([&](const std::string& text) {
         const auto parts = cli::split_n(text, ':', 2);
         overload.bucket_rate_per_second = number(parts[0]);
         overload.bucket_burst = number(parts[1]);
       })},
      {"--watermarks", "HIGH:LOW", "live jobs per live server that start and stop shedding",
       service([&](const std::string& text) {
         const auto parts = cli::split_n(text, ':', 2);
         overload.high_watermark = number(parts[0]);
         overload.low_watermark = number(parts[1]);
       })},
      {"--shed-fraction", "F", "fraction of sheddable arrivals dropped while latched, in [0,1]",
       service([&](const std::string& text) { overload.shed_fraction = number(text); })},
      {"--tenants", "N:PROTECTED",
       "tenant classes (job id % N) and how many top classes ride through shedding",
       service([&](const std::string& text) {
         const auto parts = cli::split_n(text, ':', 2);
         overload.num_tenant_classes = cli::parse_number("", parts[0], 1);
         overload.protected_classes = cli::parse_number("", parts[1], 0);
       })},
      {"--governor", "", "enable the SLO degradation ladder",
       cli::set_true(overload.governor_enabled)},
      {"--slo-p99", "SECONDS", "p99 response-time target (0: load only)",
       service([&](const std::string& text) {
         overload.slo_target_p99_seconds = number(text);
       })},
      {"--slo-window", "N", "sliding-window sample count",
       cli::set_number(overload.slo_window_size, 1)},
      {"--supervise", "",
       "run in a supervised child process, restarted from the newest valid snapshot",
       cli::set_true(opt.supervise)},
      {"--snapshot-base", "PATH",
       "snapshot rotation base (PATH.latest, PATH.prev, PATH.progress)",
       cli::set_text(sup.snapshot_base)},
      {"--snapshot-every", "SLOTS", "snapshot stride, a multiple of --pump (default 4 * pump)",
       cli::set_number(sup.checkpoint_stride_slots, SimTime{0})},
      {"--max-restarts", "N", "restart budget (default 8)",
       cli::set_number(sup.max_restarts, 0)},
      {"--watchdog", "SECONDS", "no-progress watchdog (default 30)",
       cli::set_number(sup.watchdog_seconds, 0.0)},
      {"--resume-from", "FILE",
       "first child resumes from this snapshot (not a quarantined one)",
       cli::set_text(sup.resume_from)},
      {"--kill-at", "S1,S2,...", "test hook: child k SIGKILLs itself at slot Sk",
       cli::set_numbers(sup.kill_at_slots, SimTime{0})},
  });
  cli::parse(argc, argv, kAbout, flags);
  if (sup.checkpoint_stride_slots == 0) sup.checkpoint_stride_slots = 4 * config.pump_slots;
  if (opt.supervise) cli::parse_with("--supervise", [&] { sup.validate(config.pump_slots); });
  config.sim = run.config;
  const Cluster cluster = cli::parse_with("--cluster", [&] { return run.make_cluster(); });

  Fleet fleet;
  try {
    if (opt.supervise) {
      run_supervise(cluster, config, sup);
      return 0;
    }
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
    const double every = config.checkpoint_interval_seconds;
    int checkpoint_index = 0;
    double next_checkpoint_seconds = every > 0.0 ? every : -1.0;
    while (fleet.parent->clock() < sup.horizon_slots) {
      const SimTime stride =
          std::min<SimTime>(sup.horizon_slots, fleet.parent->clock() + config.pump_slots);
      fleet.parent->run_until(stride);
      if (next_checkpoint_seconds > 0.0 && !opt.checkpoint.empty() &&
          static_cast<double>(fleet.parent->clock()) * config.sim.slot_seconds >=
              next_checkpoint_seconds) {
        const std::string path =
            opt.checkpoint + "." + std::to_string(checkpoint_index++);
        fleet.parent->checkpoint(path);
        std::cerr << "wrote checkpoint " << path << "\n";
        next_checkpoint_seconds += every;
      }
    }
    if (!opt.checkpoint.empty() && every <= 0.0) {
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
