#include "dollymp/cluster/server.h"

#include <stdexcept>
#include <string>

#include "dollymp/common/state_io.h"

namespace dollymp {

void ServerTable::reserve(std::size_t servers) {
  capacity_.reserve(servers);
  used_.reserve(servers);
  base_speed_.reserve(servers);
  slow_factor_.reserve(servers);
  rack_.reserve(servers);
  running_copies_.reserve(servers);
  flags_.reserve(servers);
}

ServerId ServerTable::add(const ServerSpec& spec) {
  const ServerId id = static_cast<ServerId>(capacity_.size());
  capacity_.push_back(spec.capacity);
  used_.emplace_back();
  base_speed_.push_back(spec.base_speed);
  slow_factor_.push_back(1.0);
  rack_.push_back(spec.rack);
  running_copies_.push_back(0);
  flags_.push_back(0);
  return id;
}

void ServerTable::save_state(StateWriter& w) const {
  w.pod_vec(capacity_);
  w.pod_vec(used_);
  w.pod_vec(base_speed_);
  w.pod_vec(slow_factor_);
  w.pod_vec(rack_);
  w.pod_vec(running_copies_);
  w.pod_vec(flags_);
}

void ServerTable::load_state(StateReader& r) {
  r.pod_vec(capacity_);
  r.pod_vec(used_);
  r.pod_vec(base_speed_);
  r.pod_vec(slow_factor_);
  r.pod_vec(rack_);
  r.pod_vec(running_copies_);
  r.pod_vec(flags_);
  const std::size_t n = capacity_.size();
  if (used_.size() != n || base_speed_.size() != n || slow_factor_.size() != n ||
      rack_.size() != n || running_copies_.size() != n || flags_.size() != n) {
    throw std::runtime_error("snapshot: server-table column length mismatch");
  }
  // Rack ids index per-rack tables (the fault engine's rack member lists)
  // and inventories number racks densely from 0, so a genuine id is below
  // the server count.
  for (std::size_t i = 0; i < n; ++i) {
    if (rack_[i] < 0 || static_cast<std::size_t>(rack_[i]) >= n) {
      throw std::runtime_error("snapshot: server " + std::to_string(i) + " rack " +
                               std::to_string(rack_[i]) + " outside [0, " +
                               std::to_string(n) + ")");
    }
  }
}

bool Server::allocate(const Resources& demand) {
  if (!demand.non_negative()) {
    throw std::invalid_argument("Server::allocate: negative demand");
  }
  if (!can_fit(demand)) return false;
  table_->used_[row()] += demand;
  return true;
}

void Server::release(const Resources& demand) {
  if (!demand.non_negative()) {
    throw std::invalid_argument("Server::release: negative demand");
  }
  Resources& used = table_->used_[row()];
  // Releasing more than is allocated means double-release or a mismatched
  // demand vector — a layout bug that the clamp below would otherwise
  // silently absorb.  The epsilon tolerates float noise from fractional
  // demands (which the clamp exists to tidy).
  DMP_DEBUG_CHECK([&] {
                    for (std::size_t d = 0; d < Resources::kMaxDims; ++d) {
                      if (used[d] - demand[d] < -1e-6) return false;
                    }
                    return true;
                  }(),
                  "Server::release: allocation counter underflow");
  used -= demand;
  used = used.clamped();
}

}  // namespace dollymp
