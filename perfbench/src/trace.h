// In-memory span tracer for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code: around the public
// library calls (SimCore / Session lifecycle, checkpoint I/O) and inside the
// forwarding Scheduler / SchedulerContext wrappers (wrappers.h).  Each span
// keeps its layer, start, end and the index of the span that was open when
// it began, so a layer's self time is its duration minus its children's.
// Everything runs on one thread, so children never overlap and nest
// strictly inside their parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRep,            ///< one repetition; its self time is the untimed remainder
  kClusterBuild,   ///< Cluster::google_trace
  kWorkloadGen,    ///< TraceModel sampling + arrivals / stand-alone ArrivalSource
  kSimConstruct,   ///< SimCore / Session construction
  kSimIngest,      ///< SimCore::ingest
  kSimStep,        ///< SimCore::step_until / Session::run_until
  kSchedSchedule,  ///< Scheduler::schedule through the wrapper
  kSchedNotify,    ///< Scheduler::on_* callbacks through the wrapper
  kPlace,          ///< place_copy / place_speculative_copy / place_gang
  kCkptSerialize,  ///< SimCore::save_state / Session::serialize
  kCkptWrite,      ///< write_state_file (fsync'd)
  kRestore,        ///< core / session rebuilt from a checkpoint
  kSimFinish,      ///< SimCore::finish
  kVerify,         ///< the benchmark's own output checks
  kCount,
};

inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

[[nodiscard]] inline const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "rep",         "cluster.build",  "workload.gen", "sim.construct",
      "sim.ingest",  "sim.step",       "sched.schedule", "sched.notify",
      "place",       "ckpt.serialize", "ckpt.write",   "restore",
      "sim.finish",  "verify",
  };
  return kNames[static_cast<int>(layer)];
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kRep;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer totals over a span list: summed duration, summed self time
/// (duration minus the durations of direct children) and span count.
struct LayerTotals {
  double total_ns[kLayerCount] = {};
  double self_ns[kLayerCount] = {};
  long long count[kLayerCount] = {};
};

[[nodiscard]] inline LayerTotals layer_totals(const std::vector<Span>& spans) {
  LayerTotals out;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) throw std::logic_error("span ended before it started");
    const auto i = static_cast<int>(s.layer);
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    out.total_ns[i] += dur;
    out.self_ns[i] += dur;
    ++out.count[i];
    if (s.parent >= 0) {
      out.self_ns[static_cast<int>(spans[static_cast<std::size_t>(s.parent)].layer)] -= dur;
    }
  }
  return out;
}

class Tracer {
 public:
  [[nodiscard]] std::int32_t begin(Layer layer) {
    spans_.push_back(Span{layer, open_, now_ns(), 0});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void end(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_ = -1;
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span on an optional tracer (null = untraced, costs one branch).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), index_(tracer ? tracer->begin(layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Write spans as Chrome trace-event JSON ("X" complete events), which
/// ui.perfetto.dev and chrome://tracing open directly.  At most
/// `max_events` spans are written, coarse ones (root and its children)
/// first; returns how many were left out.
inline std::size_t write_perfetto(const std::string& path, const std::vector<Span>& spans,
                                  std::size_t max_events) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::size_t written = 0;
  bool first = true;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  auto emit = [&](const Span& s) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << layer_name(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3 << "}";
    first = false;
    ++written;
  };
  auto coarse = [&](const Span& s) {
    return s.parent < 0 || spans[static_cast<std::size_t>(s.parent)].parent < 0;
  };
  for (const Span& s : spans) {
    if (coarse(s) && written < max_events) emit(s);
  }
  for (const Span& s : spans) {
    if (!coarse(s) && written < max_events) emit(s);
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
  return spans.size() - written;
}

}  // namespace perfbench
