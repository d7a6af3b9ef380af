// Time-varying background load on physical hosts.
//
// Section 2: "the background workload on the physical servers where the VM
// instances are located also changes over time.  Due to this, resource
// contention can occur and thus lead to stragglers."  We model the
// contention on each server as a piecewise-constant slowdown factor >= 1
// that renews at exponentially distributed intervals; with probability
// p_contend the renewal draws a heavy-tailed (bounded Pareto) slowdown,
// otherwise the server runs unimpeded.  This yields exactly the trace
// phenomenology the paper cites: most tasks normal, a heavy tail of copies
// running several times slower, and the straggler pattern changing over
// time rather than being pinned to fixed "bad" machines.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/common/distributions.h"
#include "dollymp/common/rng.h"

namespace dollymp {

class StateWriter;
class StateReader;

struct BackgroundLoadConfig {
  bool enabled = true;
  double mean_interval_seconds = 120.0;  ///< mean time between load renewals
  double contention_probability = 0.25;  ///< chance a renewal brings contention
  double slowdown_shape = 1.8;           ///< Pareto shape of the slowdown tail
  double max_slowdown = 8.0;             ///< cap (Facebook traces: up to 8x, Sec. 1)
};

/// Per-server piecewise-constant slowdown process.  Deterministic given the
/// seed and queried lazily: advance(t) rolls the process forward to time t.
class BackgroundLoadProcess {
 public:
  BackgroundLoadProcess(BackgroundLoadConfig config, std::size_t num_servers,
                        std::uint64_t seed);

  /// Multiplicative slowdown (>= 1) experienced by `server` at time
  /// `seconds`.  Monotonically advancing query times are required (the
  /// simulator's clock only moves forward).
  [[nodiscard]] double slowdown(std::size_t server, double seconds);

  [[nodiscard]] const BackgroundLoadConfig& config() const { return config_; }

  void reset(std::uint64_t seed);

  /// Checkpoint/restore: the per-server segment boundaries, current
  /// slowdowns and RNG positions — the full process state, so restored
  /// queries continue the exact realization.  A disabled process holds
  /// and writes no states; load_state requires the snapshot's server count
  /// to match this process's (zero when disabled).
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  struct State {
    double until_seconds = 0.0;  ///< current segment valid before this time
    double slowdown = 1.0;
    Rng rng{0};
  };

  void renew(State& s, double now);

  BackgroundLoadConfig config_;
  std::vector<State> states_;
};

}  // namespace dollymp
