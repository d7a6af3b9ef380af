#include "dollymp/learn/server_scorer.h"

#include <algorithm>
#include <stdexcept>

#include "dollymp/common/state_io.h"

namespace dollymp {

ServerScorer::ServerScorer(std::size_t num_servers, ServerScorerConfig config)
    : config_(config), states_(num_servers) {
  if (!(config_.ewma_alpha > 0.0) || config_.ewma_alpha > 1.0) {
    throw std::invalid_argument("ServerScorer: ewma_alpha must be in (0, 1]");
  }
  if (config_.max_slowdown < 1.0) {
    throw std::invalid_argument("ServerScorer: max_slowdown must be >= 1");
  }
}

void ServerScorer::observe(ServerId server, double expected_seconds,
                           double actual_seconds) {
  if (server < 0 || static_cast<std::size_t>(server) >= states_.size()) {
    throw std::out_of_range("ServerScorer: server id out of range");
  }
  if (!(expected_seconds > 0.0) || !(actual_seconds > 0.0)) return;  // ignore junk
  const double ratio = std::clamp(actual_seconds / expected_seconds,
                                  1.0 / config_.max_slowdown, config_.max_slowdown);
  State& s = states_[static_cast<std::size_t>(server)];
  if (s.weight == 0.0) {
    // Seed the estimate with the prior as `prior_weight` pseudo-samples.
    s.ewma = config_.prior_slowdown;
    s.weight = config_.prior_weight;
  }
  // Adaptive step: behaves like a plain running mean while the effective
  // sample mass is below 1/alpha (fast burn-in that washes the prior out),
  // then settles into a forgetting EWMA so contention changes are tracked.
  const double step = std::max(config_.ewma_alpha, 1.0 / (s.weight + 1.0));
  s.ewma += step * (ratio - s.ewma);
  s.weight = std::min(s.weight + 1.0, 1.0 / config_.ewma_alpha);
  ++s.count;
}

double ServerScorer::estimated_slowdown(ServerId server) const {
  if (server < 0 || static_cast<std::size_t>(server) >= states_.size()) {
    throw std::out_of_range("ServerScorer: server id out of range");
  }
  const State& s = states_[static_cast<std::size_t>(server)];
  if (s.count == 0) return config_.prior_slowdown;
  return std::clamp(s.ewma, 1.0 / config_.max_slowdown, config_.max_slowdown);
}

std::size_t ServerScorer::samples(ServerId server) const {
  if (server < 0 || static_cast<std::size_t>(server) >= states_.size()) {
    throw std::out_of_range("ServerScorer: server id out of range");
  }
  return states_[static_cast<std::size_t>(server)].count;
}

void ServerScorer::reset() {
  for (auto& s : states_) s = State{};
}

void ServerScorer::save_state(StateWriter& w) const { w.pod_vec(states_); }

void ServerScorer::load_state(StateReader& r) { r.pod_vec(states_); }

}  // namespace dollymp
