// End-to-end benchmark program: runs one workload through the library's
// public entry points and prints one JSON document with its metrics.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-out FILE]
//
// Batch workloads (fleet-1m, straggler-30k) drive SimCore:
// construct -> ingest -> begin -> step_until(mid) -> checkpoint + restore
// -> step_until(end) -> finish.  The service workload (service-30k) drives
// a Session in fixed run_until windows, serializes it every few windows and
// restores it once mid-run.
//
// One run covers K sub-seeds (independent realizations) and repeats each.
// Round 0 runs every sub-seed once as warm-up with the policy bare (no
// wrapper) and verifies the restore (service: the restored session driven
// to the end; batch: the restored core re-serializes to the same bytes).
// Every later rep's decision digest and sim metrics must equal its
// sub-seed's round-0 rep.  Measured rounds follow until --seconds have
// passed.  With --trace 1, untraced and traced rounds alternate: per-layer
// numbers come from the traced reps, and the tracing overhead is the
// jobs_per_s difference between the two kinds.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/state_io.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/service/arrival_source.h"
#include "dollymp/service/session.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"
#include "stats.h"
#include "trace.h"
#include "wrappers.h"

namespace perfbench {
namespace {

// ---- workloads ---------------------------------------------------------------

struct BatchWorkload {
  std::size_t servers = 0;
  int jobs = 0;
  double gap_seconds = 10.0;
  bool straggler_aware = false;
  bool resilience = false;
  std::string fault_preset = "healthy";
  int max_tasks_per_phase = TraceModelConfig{}.max_tasks_per_phase;
  /// Multiplier on the preset's mean time between faults (repairs keep
  /// their preset means).
  double fault_interval_scale = 1.0;
};

struct ServiceWorkload {
  std::size_t servers = 30'000;
  SimTime window_slots = 0;
  int windows = 0;
  int serialize_every = 0;  ///< windows between in-memory serializations
};

struct Workload {
  std::string name;
  bool service = false;
  /// Independent realizations per run: sub-seed k of run seed s is s*K + k.
  /// Every round runs each once; run-level figures are medians over them.
  int sub_seeds = 1;
  /// Restores of the mid-run checkpoint per rep.  On 30K servers one
  /// restore takes a few tens of milliseconds, and one sample per rep was
  /// too few to steady its median; on 1M servers one takes half a second.
  int restore_trials = 3;
  BatchWorkload batch;
  ServiceWorkload svc;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fleet-1m") {
    w.batch = {1'000'000, 2000, 10.0, false, false, "healthy"};
    w.restore_trials = 1;
  } else if (name == "straggler-30k") {
    // Every fault class of preset "all", at a quarter of its rates.  At the
    // preset's 600 s crash MTTF, tasks longer than that retry
    // geometrically and about one realization in four runs 2-8x longer
    // (makespan, fault events, host time), so run-to-run spread would be a
    // property of the fault draw.  Phases of at most 50 tasks shorten the
    // same tail; five realizations per run, combined by median, absorb
    // the rest.
    w.batch = {30'000, 400, 10.0, true, true, "all", 50, 4.0};
    w.sub_seeds = 5;
  } else if (name == "service-30k") {
    w.service = true;
    w.svc = {30'000, 32, 160, 20};
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (known: fleet-1m, straggler-30k, service-30k)");
  }
  return w;
}

SimConfig batch_sim_config(const BatchWorkload& b, std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  config.threads = 1;
  config.background.enabled = false;
  config.locality.enabled = true;
  const SweepFaultPreset preset = make_fault_preset(b.fault_preset);
  config.failures = preset.failures;
  config.faults = preset.faults;
  config.failures.mean_time_to_failure_seconds *= b.fault_interval_scale;
  config.faults.rack.time_to_failure.mean_seconds *= b.fault_interval_scale;
  config.faults.fail_slow.time_to_onset.mean_seconds *= b.fault_interval_scale;
  config.faults.copy.inter_fault.mean_seconds *= b.fault_interval_scale;
  return config;
}

std::unique_ptr<Scheduler> batch_policy(const BatchWorkload& b) {
  DollyMPConfig config;
  config.clone_budget = 2;
  config.straggler_aware = b.straggler_aware;
  config.resilience.enabled = b.resilience;
  return std::make_unique<DollyMPScheduler>(config);
}

/// The batch job mix is fixed per workload (TraceModel seed 11, the ROADMAP
/// baseline); the benchmark seed drives the arrivals and, through
/// SimConfig::seed, execution times, locality replicas and faults.  A
/// TraceModel sample of a few hundred jobs has a heavy tail of large jobs,
/// which would otherwise make run-to-run spread a property of the sample.
constexpr std::uint64_t kJobMixSeed = 11;

std::vector<JobSpec> batch_jobs(const BatchWorkload& b, std::uint64_t seed) {
  TraceModelConfig mix;
  mix.max_tasks_per_phase = b.max_tasks_per_phase;
  TraceModel model(mix, kJobMixSeed);
  std::vector<JobSpec> jobs = model.sample_jobs(b.jobs);
  assign_poisson_arrivals(jobs, b.gap_seconds, seed);
  return jobs;
}

/// Service stream: diurnal Poisson arrivals with one flash crowd, admission
/// gate + governor on, crash failures on.  The flash crowd is sized to
/// engage shedding and move the degradation ladder.  The arrival stream
/// (times and job bodies) is fixed like the batch job mix; the benchmark
/// seed drives the simulator (execution times, locality, crashes).  With
/// the stream drawn from the seed, the Exp-sized bodies made the window
/// times of two seeds differ by up to a fifth, and that spread, not the code,
/// dominated run-to-run variation.
ServiceConfig service_config(const ServiceWorkload& s, std::uint64_t seed) {
  ServiceConfig config;
  config.policy = "dollymp2";
  config.pump_slots = s.window_slots;
  config.sim.seed = seed;
  config.sim.threads = 1;
  config.sim.background.enabled = false;
  config.sim.failures.enabled = true;
  config.sim.failures.mean_time_to_failure_seconds = 6.0 * 3600.0;
  config.sim.failures.mean_repair_seconds = 300.0;
  const double horizon_seconds =
      static_cast<double>(s.window_slots) * s.windows * config.sim.slot_seconds;
  config.arrivals.seed = kJobMixSeed;
  config.arrivals.rate_per_second = 1.0;
  config.arrivals.mean_input_gb = 2.0;
  config.arrivals.diurnal_amplitude = 0.3;
  config.arrivals.diurnal_period_seconds = horizon_seconds;
  config.arrivals.flash_multiplier = 8.0;
  config.arrivals.flash_start_seconds = 0.55 * horizon_seconds;
  config.arrivals.flash_duration_seconds = 0.1 * horizon_seconds;
  // Live load at the base rate sits near 0.0012 jobs per server; the
  // watermark and the token bucket only bite inside the flash crowd.
  config.overload.admission_enabled = true;
  config.overload.bucket_rate_per_second = 4.0;
  config.overload.bucket_burst = 64.0;
  config.overload.high_watermark = 0.0025;
  config.overload.low_watermark = 0.00125;
  config.overload.governor_enabled = true;
  config.overload.slo_target_p99_seconds = 300.0;
  config.overload.enter_level1 = 0.8;
  config.overload.enter_level2 = 1.5;
  config.overload.enter_level3 = 2.5;
  config.overload.dwell_evaluations = 1;
  return config;
}

// ---- per-rep results -------------------------------------------------------

/// Named values that must repeat exactly across reps of one process (sim
/// metrics, counters, checkpoint size).
using Exact = std::vector<std::pair<std::string, double>>;

struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double step_s = 0.0;
  double jobs_completed = 0.0;
  double jobs_submitted = 0.0;
  std::vector<double> round_ns;    ///< schedule() calls (batch) / run_until windows (service)
  std::vector<double> ckpt_ns;     ///< in-memory checkpoint serializations
  std::vector<double> restore_ns;  ///< restores of the mid-run checkpoint
  std::vector<double> flowtimes;  ///< per-job flowtimes (batch)
  std::uint64_t digest = 0;
  Exact exact;
  LayerTotals layers;  ///< traced reps only
  double wall_s = 0.0;
  int sub = 0;  ///< sub-seed index
  std::vector<std::string> failures;
};

/// 64-bit FNV-1a (the checkpoint envelope's parameters) over the digest
/// fields.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= kStateHashPrime;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kStateHashSeed;
};

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Process peak resident set (VmHWM) in bytes; 0 when /proc is unavailable.
double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0;
  }
  return 0.0;
}

/// Counters every workload reports from the core's SimStats.
void add_sim_counters(Exact& exact, const SimStats& st) {
  const double events = static_cast<double>(st.events_processed());
  exact.emplace_back("sim.slots", static_cast<double>(st.slots_visited));
  exact.emplace_back("sim.events", events);
  exact.emplace_back("slab.alloc_per_slot",
                     static_cast<double>(st.copy_slab_acquires - st.copy_slab_reuses) /
                         std::max(1.0, static_cast<double>(st.slots_visited)));
  exact.emplace_back("sched.calls", static_cast<double>(st.scheduler_invocations));
  exact.emplace_back("place.accept_ratio",
                     static_cast<double>(st.placements_accepted) /
                         std::max(1.0, static_cast<double>(st.placement_attempts)));
  exact.emplace_back("index.queries", static_cast<double>(st.index_queries));
  exact.emplace_back("index.scanned_per_query",
                     static_cast<double>(st.index_servers_scanned) /
                         std::max(1.0, static_cast<double>(st.index_queries)));
  exact.emplace_back("index.updates", static_cast<double>(st.index_updates));
  exact.emplace_back("index.batch_hit_ratio",
                     static_cast<double>(st.index_batch_hits) /
                         std::max(1.0, static_cast<double>(st.index_queries)));
  const double launched =
      static_cast<double>(st.copies_finished + st.copies_killed);
  exact.emplace_back("clone.useful_ratio",
                     static_cast<double>(st.copies_finished) / std::max(1.0, launched));
  exact.emplace_back("faults.events",
                     static_cast<double>(st.events_server_failure + st.events_server_repair +
                                         st.events_rack_failure + st.events_rack_repair +
                                         st.events_fail_slow_onset +
                                         st.events_fail_slow_recover + st.events_copy_fault));
  exact.emplace_back("faults.kills", static_cast<double>(st.copies_killed_by_faults));
  exact.emplace_back("faults.retries", static_cast<double>(st.retries_issued));
  exact.emplace_back("faults.quarantined", static_cast<double>(st.servers_quarantined));
  exact.emplace_back("mem.table_mb", mib(static_cast<double>(st.server_table_bytes)));
  exact.emplace_back("mem.bytes_per_server", st.bytes_per_server);
  exact.emplace_back("mem.store_mb", mib(static_cast<double>(st.runtime_store_bytes)));
}

// ---- batch -----------------------------------------------------------------

/// Per-job decision digest over (id, arrival, first start, finish, clones,
/// speculative copies) plus the run's copy total.
std::uint64_t batch_digest(const SimResult& r) {
  Fnv h;
  for (const JobRecord& j : r.jobs) {
    h.add(static_cast<std::uint64_t>(j.id));
    h.add(j.arrival_seconds);
    h.add(j.first_start_seconds);
    h.add(j.finish_seconds);
    h.add(static_cast<std::uint64_t>(j.clones_launched));
    h.add(static_cast<std::uint64_t>(j.speculative_launched));
  }
  h.add(static_cast<std::uint64_t>(r.total_copies_launched));
  return h.value();
}

void check(bool ok, const std::string& what, std::vector<std::string>& failures) {
  if (!ok) failures.push_back(what);
}

/// Output checks every batch run must pass.
void check_batch(const SimResult& r, std::size_t submitted, std::vector<std::string>& failures) {
  const SimStats& st = r.stats;
  check(r.jobs.size() == submitted, "not every job completed", failures);
  check(st.leaked_cpu == 0.0 && st.leaked_mem == 0.0, "cpu/mem still allocated at run end",
        failures);
  check(st.leaked_active_copies == 0, "copies still active at run end", failures);
  check(st.copies_finished + st.copies_killed == r.total_copies_launched,
        "copies finished + killed != copies launched", failures);
}

/// Cluster build + job generation + SimCore construction + ingest: the
/// set-up a batch run pays before its first event.
struct BatchSetup {
  std::optional<Cluster> cluster;
  std::vector<JobSpec> jobs;
  std::unique_ptr<SimCore> core;
  double seconds = 0.0;
};

BatchSetup setup_batch(const BatchWorkload& b, const SimConfig& config, std::uint64_t seed,
                       Tracer* tracer) {
  BatchSetup out;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan s(tracer, Layer::kClusterBuild);
    out.cluster.emplace(Cluster::google_trace(b.servers));
  }
  {
    ScopedSpan s(tracer, Layer::kWorkloadGen);
    out.jobs = batch_jobs(b, seed);
  }
  {
    ScopedSpan s(tracer, Layer::kSimConstruct);
    out.core = std::make_unique<SimCore>(*out.cluster, config);
  }
  {
    ScopedSpan s(tracer, Layer::kSimIngest);
    out.core->ingest(out.jobs);
  }
  out.seconds = seconds_since(t0);
  return out;
}

Rep run_batch_rep(const Workload& w, std::uint64_t seed, Tracer* tracer, bool bare,
                  const std::string& work_dir) {
  const BatchWorkload& b = w.batch;
  Rep rep;
  rep.traced = tracer != nullptr;
  if (tracer) tracer->clear();
  const std::int64_t rep_t0 = now_ns();
  {
    ScopedSpan rep_span(tracer, Layer::kRep);
    const SimConfig config = batch_sim_config(b, seed);
    BatchSetup setup = setup_batch(b, config, seed, tracer);
    const Cluster& cluster = *setup.cluster;
    const std::vector<JobSpec>& jobs = setup.jobs;
    SimCore* core = setup.core.get();
    rep.setup_s = setup.seconds;

    auto policy = batch_policy(b);
    TimedScheduler timed(*policy, tracer, rep.round_ns);
    Scheduler& scheduler = bare ? *policy : static_cast<Scheduler&>(timed);
    core->begin(scheduler);

    // Pause at the median arrival for the mid-run checkpoint.
    std::vector<double> arrivals;
    for (const JobSpec& j : jobs) arrivals.push_back(j.arrival_seconds);
    const auto mid_slot = static_cast<SimTime>(median(arrivals) / config.slot_seconds);

    std::int64_t t0 = now_ns();
    {
      ScopedSpan s(tracer, Layer::kSimStep);
      (void)core->step_until(mid_slot);
    }
    rep.step_s += seconds_since(t0);

    std::vector<std::uint8_t> bytes;
    {
      t0 = now_ns();
      ScopedSpan s(tracer, Layer::kCkptSerialize);
      StateWriter writer;
      core->save_state(writer);
      bytes = writer.finish();
      rep.ckpt_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    if (tracer) {
      ScopedSpan s(tracer, Layer::kCkptWrite);
      write_state_file(work_dir + "/" + w.name + ".ckpt", bytes);
    }
    for (int trial = 0; trial < w.restore_trials; ++trial) {
      auto restored_policy = batch_policy(b);
      std::optional<SimCore> restored;
      {
        t0 = now_ns();
        ScopedSpan s(tracer, Layer::kRestore);
        restored.emplace(cluster, config);
        restored->begin(*restored_policy);
        StateReader reader(bytes);
        restored->load_state(reader, true);
        rep.restore_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      // Round 0: the restored core must serialize back to the same bytes.
      // (Its continuation is not compared: with straggler_aware and faults
      // on, a restored SimCore diverges from the uninterrupted run.)
      if (bare && trial == 0) {
        StateWriter again;
        restored->save_state(again);
        check(again.finish() == bytes, "restored core re-serializes to different bytes",
              rep.failures);
      }
    }

    t0 = now_ns();
    {
      ScopedSpan s(tracer, Layer::kSimStep);
      (void)core->step_until(SimCore::kUnbounded);
    }
    rep.step_s += seconds_since(t0);

    SimResult result;
    {
      ScopedSpan s(tracer, Layer::kSimFinish);
      result = core->finish();
    }

    ScopedSpan verify(tracer, Layer::kVerify);
    check_batch(result, jobs.size(), rep.failures);
    rep.digest = batch_digest(result);
    rep.jobs_completed = static_cast<double>(result.jobs.size());
    rep.jobs_submitted = static_cast<double>(jobs.size());

    double flow_sum = 0.0;
    double clones = 0.0;
    double queue_delay = 0.0;
    for (const JobRecord& j : result.jobs) {
      rep.flowtimes.push_back(j.flowtime());
      flow_sum += j.flowtime();
      clones += j.clones_launched;
      queue_delay += j.wait_time();
    }
    const double n = std::max(1.0, static_cast<double>(result.jobs.size()));
    Exact& e = rep.exact;
    e.emplace_back("flowtime_mean_s", flow_sum / n);
    std::vector<double> flow = rep.flowtimes;
    e.emplace_back("flowtime_p99_s", flow.empty() ? 0.0 : percentile(flow, 0.99));
    e.emplace_back("clones_per_job", clones / n);
    e.emplace_back("completed_frac", rep.jobs_completed / rep.jobs_submitted);
    e.emplace_back("checkpoint_mb", mib(static_cast<double>(bytes.size())));
    e.emplace_back("ckpt.bytes", static_cast<double>(bytes.size()));
    e.emplace_back("sched.queue_delay_mean_s", queue_delay / n);
    add_sim_counters(e, result.stats);
  }
  rep.wall_s = seconds_since(rep_t0);
  return rep;
}

// ---- service ---------------------------------------------------------------

/// Cluster build + Session construction (the session generates its jobs
/// lazily while it runs).
struct ServiceSetup {
  std::optional<Cluster> cluster;
  std::unique_ptr<Session> session;
  double seconds = 0.0;
};

ServiceSetup setup_service(const ServiceWorkload& s, const ServiceConfig& config,
                           Tracer* tracer) {
  ServiceSetup out;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(tracer, Layer::kClusterBuild);
    out.cluster.emplace(Cluster::google_trace(s.servers));
  }
  {
    ScopedSpan span(tracer, Layer::kSimConstruct);
    out.session = std::make_unique<Session>(*out.cluster, config);
  }
  out.seconds = seconds_since(t0);
  return out;
}

Rep run_service_rep(const Workload& w, std::uint64_t seed, Tracer* tracer, bool verify_restore,
                    const std::string& work_dir) {
  const ServiceWorkload& s = w.svc;
  const ServiceConfig config = service_config(s, seed);
  Rep rep;
  rep.traced = tracer != nullptr;
  if (tracer) tracer->clear();
  const std::int64_t rep_t0 = now_ns();
  {
    ScopedSpan rep_span(tracer, Layer::kRep);
    ServiceSetup setup = setup_service(s, config, tracer);
    const Cluster& cluster = *setup.cluster;
    std::unique_ptr<Session>& session = setup.session;
    rep.setup_s = setup.seconds;

    const std::string path = work_dir + "/" + w.name + ".ckpt";
    const int restore_at = s.windows / 2;
    std::unique_ptr<Session> restored;
    double checkpoint_bytes = 0.0;
    std::vector<double> window_p99;
    long long live_max = 0;
    for (int i = 1; i <= s.windows; ++i) {
      std::int64_t t0 = now_ns();
      {
        ScopedSpan span(tracer, Layer::kSimStep);
        session->run_until(s.window_slots * i);
      }
      const std::int64_t window_ns = now_ns() - t0;
      rep.round_ns.push_back(static_cast<double>(window_ns));
      rep.step_s += static_cast<double>(window_ns) / 1e9;
      live_max = std::max<long long>(live_max, session->live_jobs());
      if (session->slo_window().count() > 0) window_p99.push_back(session->slo_window().p99());

      if (i % s.serialize_every != 0 && i != restore_at) continue;
      std::vector<std::uint8_t> bytes;
      {
        t0 = now_ns();
        ScopedSpan span(tracer, Layer::kCkptSerialize);
        bytes = session->serialize();
        rep.ckpt_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      if (i != restore_at) continue;
      checkpoint_bytes = static_cast<double>(bytes.size());
      {
        ScopedSpan span(tracer, Layer::kCkptWrite);
        write_state_file(path, bytes);
      }
      for (int trial = 0; trial < w.restore_trials; ++trial) {
        restored.reset();  // at most one restored session beside the live one
        t0 = now_ns();
        {
          ScopedSpan span(tracer, Layer::kRestore);
          restored = Session::restore(cluster, config, path);
        }
        rep.restore_ns.push_back(static_cast<double>(now_ns() - t0));
      }
      if (!verify_restore) restored.reset();
    }

    ScopedSpan verify(tracer, Layer::kVerify);
    const StreamTotals totals = session->totals();
    const long long shed = session->arrivals_shed();
    const double records = static_cast<double>(session->records_written());
    const Recorder* rec = session->core().recorder();
    const double evictions = rec ? static_cast<double>(rec->evictions()) : 0.0;
    rep.digest = session->stream_hash();
    // finish() fills the end-of-run counters (index, slab, memory); the
    // session is not advanced after it.
    SimResult result;
    {
      ScopedSpan span(tracer, Layer::kSimFinish);
      result = session->core().finish();
    }
    const SimStats& st = result.stats;
    if (restored) {
      for (int i = restore_at + 1; i <= s.windows; ++i) restored->run_until(s.window_slots * i);
      check(restored->stream_hash() == rep.digest,
            "restored session's stream hash differs from the uninterrupted one", rep.failures);
    }

    // Conservation: a stand-alone source with the same config emits exactly
    // what the session ingested or shed through the horizon.
    std::vector<JobSpec> emitted;
    {
      ScopedSpan span(tracer, Layer::kWorkloadGen);
      ArrivalSource source(config.arrivals);
      source.emit_until(static_cast<double>(s.window_slots * s.windows + 1) *
                            config.sim.slot_seconds,
                        emitted);
    }
    check(totals.jobs_ingested + shed == static_cast<long long>(emitted.size()),
          "ingested + shed != arrivals the stand-alone source emitted", rep.failures);
    check(st.arrivals_shed_watermark + st.arrivals_shed_admission + st.arrivals_shed_overload > 0,
          "the flash crowd shed nothing", rep.failures);
    check(st.overload_transitions > 0, "the degradation ladder never moved", rep.failures);

    rep.jobs_completed = static_cast<double>(totals.jobs_completed);
    rep.jobs_submitted = static_cast<double>(emitted.size());
    const double done = std::max(1.0, rep.jobs_completed);
    Exact& e = rep.exact;
    e.emplace_back("flowtime_mean_s", totals.response_seconds_sum / done);
    // Sessions keep no per-job records: this is the median, over window
    // ends, of the governor's sliding-window p99 (last slo_window_size
    // responses).
    e.emplace_back("flowtime_p99_s", median(window_p99));
    e.emplace_back("clones_per_job", static_cast<double>(totals.clones_launched) / done);
    e.emplace_back("completed_frac", rep.jobs_completed / rep.jobs_submitted);
    e.emplace_back("checkpoint_mb", mib(checkpoint_bytes));
    e.emplace_back("ckpt.bytes", checkpoint_bytes);
    e.emplace_back("sched.queue_delay_mean_s", 0.0);
    e.emplace_back("service.ingested", static_cast<double>(totals.jobs_ingested));
    e.emplace_back("service.shed_admission", static_cast<double>(st.arrivals_shed_admission));
    e.emplace_back("service.shed_watermark", static_cast<double>(st.arrivals_shed_watermark));
    e.emplace_back("service.shed_overload", static_cast<double>(st.arrivals_shed_overload));
    e.emplace_back("service.ladder_moves", static_cast<double>(st.overload_transitions));
    e.emplace_back("service.live_max", static_cast<double>(live_max));
    e.emplace_back("rec.records_per_job", records / done);
    e.emplace_back("rec.evictions", evictions);
    add_sim_counters(e, st);
  }
  rep.wall_s = seconds_since(rep_t0);
  return rep;
}

// ---- aggregation -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double value_of(const Exact& exact, const std::string& name) {
  for (const auto& [key, value] : exact) {
    if (key == name) return value;
  }
  return 0.0;
}

std::vector<double> collect(const std::vector<const Rep*>& reps,
                            const std::function<double(const Rep&)>& f) {
  std::vector<double> out;
  for (const Rep* r : reps) out.push_back(f(*r));
  return out;
}

std::vector<double> pooled(const std::vector<const Rep*>& reps,
                           std::vector<double> Rep::*field) {
  std::vector<double> out;
  for (const Rep* r : reps) out.insert(out.end(), (r->*field).begin(), (r->*field).end());
  return out;
}

double pctl_ms(std::vector<double> ns, double q) {
  if (ns.empty()) return 0.0;
  return percentile(ns, q) / 1e6;
}

/// Median over sub-seeds of a per-sub-seed figure.  Realizations under
/// heavy fault injection have a long makespan tail (a few sub-seeds run
/// several times longer), so sub-seeds are combined by median, not mean.
double across_subs(const std::vector<const Rep*>& reps,
                   const std::function<double(const std::vector<const Rep*>&)>& f) {
  std::map<int, std::vector<const Rep*>> by_sub;
  for (const Rep* r : reps) by_sub[r->sub].push_back(r);
  std::vector<double> values;
  for (const auto& [sub, group] : by_sub) values.push_back(f(group));
  return median(values);
}

/// Per-sub-seed sim metrics and counters (each repeats exactly) combined
/// by median.
Exact median_exact(const std::vector<Rep>& refs) {
  Exact out = refs.front().exact;
  for (auto& [name, value] : out) {
    std::vector<double> values;
    for (const Rep& r : refs) values.push_back(value_of(r.exact, name));
    value = median(values);
  }
  return out;
}

double jobs_per_s(const std::vector<const Rep*>& reps) {
  return across_subs(reps, [](const std::vector<const Rep*>& group) {
    return median(collect(group, [](const Rep& r) { return r.jobs_completed / r.step_s; }));
  });
}

double round_ms(const std::vector<const Rep*>& reps, double q) {
  return across_subs(reps, [q](const std::vector<const Rep*>& group) {
    return pctl_ms(pooled(group, &Rep::round_ns), q);
  });
}

std::vector<Metric> end_to_end(const std::vector<const Rep*>& reps, const Exact& exact,
                               const std::vector<double>& setups, double peak_rss) {
  return {
      {"setup_s", median(setups), "s"},
      {"jobs_per_s", jobs_per_s(reps), "jobs/s"},
      {"round_ms_p50", round_ms(reps, 0.50), "ms"},
      {"round_ms_p99", round_ms(reps, 0.99), "ms"},
      {"peak_rss_mb", mib(peak_rss), "MB"},
      {"flowtime_mean_s", value_of(exact, "flowtime_mean_s"), "sim_s"},
      {"flowtime_p99_s", value_of(exact, "flowtime_p99_s"), "sim_s"},
      {"clones_per_job", value_of(exact, "clones_per_job"), "count"},
      {"completed_frac", value_of(exact, "completed_frac"), "ratio"},
      {"checkpoint_ms", median(pooled(reps, &Rep::ckpt_ns)) / 1e6, "ms"},
      {"checkpoint_mb", value_of(exact, "checkpoint_mb"), "MB"},
      {"restore_ms", median(pooled(reps, &Rep::restore_ns)) / 1e6, "ms"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<const Rep*>& traced,
                              const std::vector<const Rep*>& untraced, const Exact& exact) {
  // Per-rep means so self times stay additive: sum over layers == wall.
  LayerTotals sum;
  double wall = 0.0;
  for (const Rep* r : traced) {
    for (int i = 0; i < kLayerCount; ++i) {
      sum.total_ns[i] += r->layers.total_ns[i];
      sum.self_ns[i] += r->layers.self_ns[i];
      sum.count[i] += r->layers.count[i];
    }
    wall += r->wall_s;
  }
  const double n = static_cast<double>(traced.size());
  auto self_s = [&](Layer l) { return sum.self_ns[static_cast<int>(l)] / 1e9 / n; };
  auto total_s = [&](Layer l) { return sum.total_ns[static_cast<int>(l)] / 1e9 / n; };
  auto count = [&](Layer l) { return static_cast<double>(sum.count[static_cast<int>(l)]) / n; };

  double accounted = 0.0;
  double spans = 0.0;
  for (int i = 0; i < kLayerCount; ++i) {
    accounted += sum.self_ns[i] / 1e9 / n;
    spans += static_cast<double>(sum.count[i]) / n;
  }
  const double wall_s = wall / n;
  if (std::fabs(accounted - wall_s) > 1e-6 * std::max(1.0, wall_s)) {
    throw std::logic_error("per-layer self times do not add up to the rep wall time");
  }

  const double jps_untraced = jobs_per_s(untraced);
  const double jps_traced = jobs_per_s(traced);
  const double events = value_of(exact, "sim.events");
  const double step = total_s(Layer::kSimStep);

  std::vector<Metric> out = {
      {"workload.gen_s", self_s(Layer::kWorkloadGen), "s"},
      {"cluster.build_s", self_s(Layer::kClusterBuild), "s"},
      {"mem.table_mb", value_of(exact, "mem.table_mb"), "MB"},
      {"mem.bytes_per_server", value_of(exact, "mem.bytes_per_server"), "B"},
      {"sim.construct_s", self_s(Layer::kSimConstruct), "s"},
      {"sim.ingest_s", self_s(Layer::kSimIngest), "s"},
      {"mem.store_mb", value_of(exact, "mem.store_mb"), "MB"},
      {"sim.step_s", step, "s"},
      {"sim.self_s", self_s(Layer::kSimStep), "s"},
      {"sim.slots", value_of(exact, "sim.slots"), "count"},
      {"sim.events", events, "count"},
      {"sim.us_per_event", step * 1e6 / std::max(1.0, events), "us"},
      {"slab.alloc_per_slot", value_of(exact, "slab.alloc_per_slot"), "count"},
      {"sched.calls", value_of(exact, "sched.calls"), "count"},
      {"sched.self_s", self_s(Layer::kSchedSchedule), "s"},
      {"sched.queue_delay_mean_s", value_of(exact, "sched.queue_delay_mean_s"), "sim_s"},
      {"sched.notify_calls", count(Layer::kSchedNotify), "count"},
      {"sched.notify_s", self_s(Layer::kSchedNotify), "s"},
      {"place.calls", count(Layer::kPlace), "count"},
      {"place.s", self_s(Layer::kPlace), "s"},
      {"place.accept_ratio", value_of(exact, "place.accept_ratio"), "ratio"},
      {"index.queries", value_of(exact, "index.queries"), "count"},
      {"index.scanned_per_query", value_of(exact, "index.scanned_per_query"), "count"},
      {"index.updates", value_of(exact, "index.updates"), "count"},
      {"index.batch_hit_ratio", value_of(exact, "index.batch_hit_ratio"), "ratio"},
      {"clone.useful_ratio", value_of(exact, "clone.useful_ratio"), "ratio"},
      {"faults.events", value_of(exact, "faults.events"), "count"},
      {"faults.kills", value_of(exact, "faults.kills"), "count"},
      {"faults.retries", value_of(exact, "faults.retries"), "count"},
      {"faults.quarantined", value_of(exact, "faults.quarantined"), "count"},
      {"service.window_ms_p50", w.service ? round_ms(traced, 0.50) : 0.0, "ms"},
      {"service.window_ms_p99", w.service ? round_ms(traced, 0.99) : 0.0, "ms"},
      {"service.ingested", value_of(exact, "service.ingested"), "count"},
      {"service.shed_admission", value_of(exact, "service.shed_admission"), "count"},
      {"service.shed_watermark", value_of(exact, "service.shed_watermark"), "count"},
      {"service.shed_overload", value_of(exact, "service.shed_overload"), "count"},
      {"service.ladder_moves", value_of(exact, "service.ladder_moves"), "count"},
      {"service.live_max", value_of(exact, "service.live_max"), "count"},
      {"rec.records_per_job", value_of(exact, "rec.records_per_job"), "count"},
      {"rec.evictions", value_of(exact, "rec.evictions"), "count"},
      {"ckpt.serialize_s", self_s(Layer::kCkptSerialize), "s"},
      {"ckpt.write_s", self_s(Layer::kCkptWrite), "s"},
      {"ckpt.bytes", value_of(exact, "ckpt.bytes"), "B"},
      {"restore.s", self_s(Layer::kRestore), "s"},
      {"sim.finish_s", self_s(Layer::kSimFinish), "s"},
      {"verify.s", self_s(Layer::kVerify), "s"},
      {"trace.untimed_s", self_s(Layer::kRep), "s"},
      {"trace.wall_s", wall_s, "s"},
      {"trace.spans_per_rep", spans, "count"},
      {"trace.overhead_pct", (jps_untraced - jps_traced) / jps_untraced * 100.0, "%"},
  };
  return out;
}

// ---- output ----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  const int k_subs = w.sub_seeds;
  auto sub_seed = [&](int k) { return args.seed * static_cast<std::uint64_t>(k_subs) + k; };
  auto rep_once = [&](int k, Tracer* tracer, bool first) {
    return w.service ? run_service_rep(w, sub_seed(k), tracer, first, args.work_dir)
                     : run_batch_rep(w, sub_seed(k), tracer, first, args.work_dir);
  };

  std::vector<std::string> failures;
  auto absorb = [&](const Rep& rep, const Rep& reference, const std::string& label) {
    for (const std::string& f : rep.failures) failures.push_back(label + ": " + f);
    if (rep.digest != reference.digest) {
      failures.push_back(label + ": decision digest differs from the bare reference rep");
    }
    if (rep.exact != reference.exact) {
      failures.push_back(label + ": sim metrics differ from the bare reference rep");
    }
  };

  // Round 0, one rep per sub-seed: warm-up, bare policy, restore verified.
  std::vector<Rep> refs;
  for (int k = 0; k < k_subs; ++k) {
    refs.push_back(rep_once(k, nullptr, true));
    for (const std::string& f : refs.back().failures) {
      failures.push_back("reference rep " + std::to_string(k) + ": " + f);
    }
  }
  Exact exact = median_exact(refs);
  if (!w.service) {
    // Batch flowtime p99 over every sub-seed's jobs, so at least ten jobs
    // lie beyond it (400 jobs alone leave four).
    std::vector<double> flow;
    for (const Rep& r : refs) flow.insert(flow.end(), r.flowtimes.begin(), r.flowtimes.end());
    if (!percentile_supported(flow.size(), 0.99)) {
      failures.push_back("fewer than ten job flowtimes beyond p99");
    }
    for (auto& [name, value] : exact) {
      if (name == "flowtime_p99_s") value = percentile(flow, 0.99);
    }
  }
  Fnv digest;
  for (const Rep& r : refs) digest.add(r.digest);

  // Measured rounds; with --trace 1 untraced and traced rounds alternate.
  Tracer tracer;
  std::vector<Rep> reps;
  std::vector<Span> last_spans;
  const std::int64_t start = now_ns();
  constexpr int kMinRounds = 2;
  constexpr std::size_t kMinSetupSamples = 15;
  int untraced_rounds = 0;
  int traced_rounds = 0;
  // Untraced round_ns samples per sub-seed: each sub-seed's p99 needs ten
  // samples beyond it.
  std::vector<std::size_t> round_samples(static_cast<std::size_t>(k_subs), 0);
  auto measured_enough = [&] {
    const bool enough_time = seconds_since(start) >= args.seconds;
    const bool enough_rounds =
        untraced_rounds >= kMinRounds && (!args.trace || traced_rounds >= kMinRounds);
    const bool enough_samples =
        percentile_supported(*std::min_element(round_samples.begin(), round_samples.end()), 0.99);
    return enough_time && enough_rounds && enough_samples;
  };
  // Checked before every rep, so a run overshoots --seconds by at most one
  // rep, not one round of K reps; the last round may be partial.
  for (int round = 1; !measured_enough(); ++round) {
    if (round > 10000) throw std::runtime_error("round budget exhausted");
    const bool trace_this = args.trace && traced_rounds < untraced_rounds;
    int k = 0;
    for (; k < k_subs && (k == 0 || !measured_enough()); ++k) {
      Rep rep = rep_once(k, trace_this ? &tracer : nullptr, false);
      rep.sub = k;
      if (trace_this) {
        rep.layers = layer_totals(tracer.spans());
        last_spans = tracer.spans();
      } else {
        round_samples[static_cast<std::size_t>(k)] += rep.round_ns.size();
      }
      absorb(rep, refs[static_cast<std::size_t>(k)],
             (trace_this ? "traced rep, sub-seed " : "rep, sub-seed ") + std::to_string(k));
      reps.push_back(std::move(rep));
    }
    if (k == k_subs) (trace_this ? traced_rounds : untraced_rounds) += 1;
  }
  // Peak RSS is read before the extra set-up trials below, which build
  // nothing the measured reps did not.
  const double peak_rss = peak_rss_bytes();
  std::vector<double> setups;
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  for (int k = 0; setups.size() < kMinSetupSamples; k = (k + 1) % k_subs) {
    const std::uint64_t seed = sub_seed(k);
    setups.push_back(w.service
                         ? setup_service(w.svc, service_config(w.svc, seed), nullptr).seconds
                         : setup_batch(w.batch, batch_sim_config(w.batch, seed), seed, nullptr)
                               .seconds);
  }

  std::vector<const Rep*> untraced_reps;
  std::vector<const Rep*> traced_reps;
  for (const Rep& r : reps) (r.traced ? traced_reps : untraced_reps).push_back(&r);

  std::size_t trace_dropped = 0;
  if (args.trace && !args.trace_out.empty()) {
    trace_dropped = write_perfetto(args.trace_out, last_spans, 200'000);
  }

  const std::vector<Metric> metrics = args.trace
                                           ? per_layer(w, traced_reps, untraced_reps, exact)
                                           : end_to_end(untraced_reps, exact, setups, peak_rss);

  double attempted = 0.0;
  for (const Rep& r : reps) attempted += r.jobs_submitted;

  std::ostringstream out;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"correct\":"
      << (failures.empty() ? "true" : "false")
      << ",\"attempted\":" << static_cast<long long>(attempted)
      << ",\"failed\":" << (failures.empty() ? 0 : static_cast<long long>(attempted))
      << ",\"digest\":\"" << hex(digest.value()) << "\",\"sub_seeds\":" << k_subs
      << ",\"reps\":" << untraced_reps.size() << ",\"traced_reps\":" << traced_reps.size()
      << ",\"round_samples_per_sub_seed\":" << *std::min_element(round_samples.begin(), round_samples.end())
      << ",\"round_tail_samples\":" << tail_samples(*std::min_element(round_samples.begin(), round_samples.end()), 0.99)
      << ",\"trace_spans_dropped\":" << trace_dropped << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? "," : "") << "\"" << failures[i] << "\"";
  }
  out << "],\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
      << PERFBENCH_COMPILER << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
        << json_number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  for (const std::string& f : failures) std::cerr << "check failed: " << f << "\n";
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 2;
  }
}
