#include "dollymp/cluster/background_load.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "dollymp/common/state_io.h"

namespace dollymp {

BackgroundLoadProcess::BackgroundLoadProcess(BackgroundLoadConfig config,
                                             std::size_t num_servers, std::uint64_t seed)
    : config_(config) {
  if (config_.mean_interval_seconds <= 0.0) {
    throw std::invalid_argument("BackgroundLoad: mean interval must be > 0");
  }
  if (config_.max_slowdown < 1.0) {
    throw std::invalid_argument("BackgroundLoad: max slowdown must be >= 1");
  }
  // A disabled process never reads its states (slowdown() returns 1.0
  // first), so it holds none: no per-server memory, no RNG splits.
  if (config_.enabled) states_.resize(num_servers);
  reset(seed);
}

void BackgroundLoadProcess::reset(std::uint64_t seed) {
  Rng root(seed);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    states_[i] = State{};
    states_[i].rng = root.split(i + 1);
    // Desynchronize renewal times across servers.
    states_[i].until_seconds = config_.mean_interval_seconds * states_[i].rng.uniform();
  }
}

void BackgroundLoadProcess::renew(State& s, double now) {
  const ExponentialDist interval(config_.mean_interval_seconds);
  while (s.until_seconds <= now) {
    s.until_seconds += std::max(1e-9, interval.sample(s.rng));
    if (config_.enabled && s.rng.chance(config_.contention_probability)) {
      const BoundedParetoDist tail(1.0, config_.slowdown_shape, config_.max_slowdown);
      s.slowdown = tail.sample(s.rng);
    } else {
      s.slowdown = 1.0;
    }
  }
}

void BackgroundLoadProcess::save_state(StateWriter& w) const { w.pod_vec(states_); }

void BackgroundLoadProcess::load_state(StateReader& r) {
  std::vector<State> states;
  r.pod_vec(states);
  if (states.size() != states_.size()) {
    throw std::runtime_error(
        "snapshot: background-load server count mismatch (snapshot " +
        std::to_string(states.size()) + ", process " + std::to_string(states_.size()) +
        ")");
  }
  states_ = std::move(states);
}

double BackgroundLoadProcess::slowdown(std::size_t server, double seconds) {
  if (!config_.enabled) return 1.0;
  State& s = states_.at(server);
  if (seconds >= s.until_seconds) renew(s, seconds);
  return s.slowdown;
}

}  // namespace dollymp
