#include "dollymp/service/supervisor.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "dollymp/common/state_io.h"

#if !defined(_WIN32)
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace dollymp {

namespace {

constexpr SimTime kNoKill = -1;

/// Exit code the child uses for a thrown exception (configuration error,
/// unreadable snapshot, ...) — fatal, not a crash to restart through.
constexpr int kChildFatalExit = 17;

/// The child's stride-boundary progress report, published atomically next
/// to the rotation so the parent can watch liveness and read the final
/// totals without sharing memory.
struct Progress {
  std::int64_t clock = 0;
  std::uint64_t hash = 0;
  std::uint64_t records = 0;
  std::int64_t ingested = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
};

void write_progress(const std::string& path, const Session& session) {
  StateWriter w;
  w.i64(session.clock());
  w.u64(session.stream_hash());
  w.u64(session.records_written());
  w.i64(session.totals().jobs_ingested);
  w.i64(session.totals().jobs_completed);
  w.i64(session.arrivals_shed());
  write_state_file(path, w.finish());
}

[[nodiscard]] bool try_read_progress(const std::string& path, Progress& out) {
  try {
    const std::vector<std::uint8_t> bytes = read_state_file(path);
    StateReader r(bytes);
    out.clock = r.i64();
    out.hash = r.u64();
    out.records = r.u64();
    out.ingested = r.i64();
    out.completed = r.i64();
    out.shed = r.i64();
    r.expect_done();
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// Quarantined generations currently on disk around the rotation — counted
/// by the parent after the fact (quarantining happens inside children).
[[nodiscard]] int count_quarantined(const std::string& base) {
  int count = 0;
  for (const char* generation : {".latest", ".prev"}) {
    for (int n = 0;; ++n) {
      const std::string jail =
          base + generation + ".quarantined." + std::to_string(n);
      std::FILE* f = std::fopen(jail.c_str(), "rb");
      if (f == nullptr) break;
      std::fclose(f);
      ++count;
    }
  }
  return count;
}

#if !defined(_WIN32)

/// The child's whole life.  Runs after fork() with no exec, so it must
/// only _exit, never return or unwind into the parent's stack frames.
[[noreturn]] void child_main(const Cluster& cluster, const ServiceConfig& config,
                             const SupervisorOptions& options,
                             const std::string& explicit_resume, SimTime kill_at) {
  try {
    SnapshotRotation rotation(options.snapshot_base);
    const std::string progress_path = options.snapshot_base + ".progress";
    std::unique_ptr<Session> session;
    const std::string resume =
        !explicit_resume.empty() ? explicit_resume : rotation.newest_valid();
    if (!resume.empty()) {
      session = Session::restore(cluster, config, resume);
    } else {
      // Nothing durable yet (or every generation was quarantined away
      // before the first stride completed): start from slot 0 — replaying
      // a prefix is bit-identical work, not divergence.
      session = std::make_unique<Session>(cluster, config);
    }

    const SimTime stride = options.checkpoint_stride_slots;
    while (session->clock() < options.horizon_slots) {
      const SimTime next = std::min(options.horizon_slots,
                                    (session->clock() / stride + 1) * stride);
      if (kill_at != kNoKill && kill_at <= next) {
        // Deterministic crash injection: die mid-stride, after doing real
        // work past the last snapshot and before cutting the next one.
        // Everything since the last stride boundary is lost on purpose.
        session->run_until(std::max(session->clock(), std::min(kill_at, next)));
        std::raise(SIGKILL);
      }
      session->run_until(next);
      rotation.write(session->serialize());
      write_progress(progress_path, *session);
    }
    std::_Exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "supervised child: fatal: %s\n", e.what());
    std::_Exit(kChildFatalExit);
  }
}

#endif  // !defined(_WIN32)

}  // namespace

void SupervisorOptions::validate(SimTime pump_slots) const {
  if (snapshot_base.empty()) {
    throw std::invalid_argument("SupervisorOptions: snapshot_base must be set");
  }
  if (horizon_slots <= 0) {
    throw std::invalid_argument("SupervisorOptions: horizon_slots must be > 0");
  }
  if (checkpoint_stride_slots <= 0) {
    throw std::invalid_argument("SupervisorOptions: checkpoint_stride_slots must be > 0");
  }
  if (checkpoint_stride_slots % pump_slots != 0) {
    // Bit-identity precondition: snapshots must land on canonical pump
    // boundaries so the restored continuation chunks identically.
    throw std::invalid_argument(
        "SupervisorOptions: checkpoint_stride_slots must be a multiple of "
        "pump_slots (snapshots must fall on arrival-pump boundaries)");
  }
  if (max_restarts < 0) {
    throw std::invalid_argument("SupervisorOptions: max_restarts must be >= 0");
  }
  if (!(watchdog_seconds > 0.0)) {
    throw std::invalid_argument("SupervisorOptions: watchdog_seconds must be > 0");
  }
}

SupervisorResult run_supervised(const Cluster& cluster, const ServiceConfig& config,
                                const SupervisorOptions& options) {
  options.validate(config.pump_slots);
  if (!options.resume_from.empty() &&
      SnapshotRotation::is_quarantined_path(options.resume_from)) {
    throw std::runtime_error("supervisor: refusing to resume from quarantined snapshot " +
                             options.resume_from +
                             " (it failed envelope validation; pick a valid generation)");
  }
  config.validate();
#if defined(_WIN32)
  throw std::runtime_error("supervisor: fork-based supervision is POSIX-only");
#else
  const std::string progress_path = options.snapshot_base + ".progress";
  std::remove(progress_path.c_str());  // stale liveness signal from a past run

  int spawned = 0;
  for (;;) {
    const SimTime kill_at =
        static_cast<std::size_t>(spawned) < options.kill_at_slots.size()
            ? options.kill_at_slots[static_cast<std::size_t>(spawned)]
            : kNoKill;
    const std::string explicit_resume = spawned == 0 ? options.resume_from : "";

    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("supervisor: fork failed");
    }
    if (pid == 0) {
      child_main(cluster, config, options, explicit_resume, kill_at);
    }
    ++spawned;

    // Babysit: reap on exit, or SIGKILL a child whose progress file has
    // not advanced for watchdog_seconds (a hang is a crash that forgot to
    // die).
    Progress last{};
    bool have_last = try_read_progress(progress_path, last);
    auto last_advance = std::chrono::steady_clock::now();
    int status = 0;
    for (;;) {
      const pid_t reaped = waitpid(pid, &status, WNOHANG);
      if (reaped == pid) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Progress now_p{};
      if (try_read_progress(progress_path, now_p) &&
          (!have_last || now_p.clock > last.clock)) {
        last = now_p;
        have_last = true;
        last_advance = std::chrono::steady_clock::now();
      } else if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               last_advance)
                     .count() > options.watchdog_seconds) {
        kill(pid, SIGKILL);
        (void)waitpid(pid, &status, 0);
        break;
      }
    }

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      Progress final_progress{};
      if (!try_read_progress(progress_path, final_progress)) {
        throw std::runtime_error("supervisor: child finished but left no progress file");
      }
      SupervisorResult result;
      result.final_clock = final_progress.clock;
      result.stream_hash = final_progress.hash;
      result.records_written = final_progress.records;
      result.jobs_ingested = final_progress.ingested;
      result.jobs_completed = final_progress.completed;
      result.arrivals_shed = final_progress.shed;
      result.restarts = spawned - 1;
      result.snapshots_quarantined = count_quarantined(options.snapshot_base);
      return result;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == kChildFatalExit) {
      throw std::runtime_error(
          "supervisor: child failed fatally during setup or restore "
          "(see its stderr); not restarting");
    }
    // Crash or watchdog kill: restart from the newest valid snapshot.
    if (spawned > options.max_restarts) {
      throw std::runtime_error("supervisor: restart budget exhausted after " +
                               std::to_string(spawned - 1) + " restarts");
    }
  }
#endif
}

}  // namespace dollymp
