#include "dollymp/cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "dollymp/common/cli.h"

namespace dollymp {

namespace {

/// A number field of a cluster spec, its error naming the whole spec.
template <typename T>
T spec_number(const std::string& spec, const std::string& text, T lo, T hi) {
  try {
    return cli::parse_number<T>("", text, lo, hi);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(e.what()) + " in cluster spec '" + spec + "'");
  }
}

}  // namespace

Cluster::Cluster() : table_(std::make_unique<ServerTable>()) {}

Cluster::Cluster(const std::vector<ServerGroup>& groups) : Cluster() {
  std::size_t count = 0;
  for (const auto& group : groups) count += static_cast<std::size_t>(group.count);
  reserve(count);
  for (const auto& group : groups) {
    for (int i = 0; i < group.count; ++i) add_server(group.spec);
  }
}

Cluster::Cluster(const Cluster& other)
    : table_(std::make_unique<ServerTable>(other.table())),
      total_(other.total_),
      rack_count_(other.rack_count_) {
  servers_.reserve(other.servers_.size());
  for (std::size_t i = 0; i < other.servers_.size(); ++i) {
    servers_.emplace_back(table_.get(), static_cast<ServerId>(i));
  }
}

Cluster& Cluster::operator=(const Cluster& other) {
  if (this == &other) return *this;
  *table_ = other.table();
  total_ = other.total_;
  rack_count_ = other.rack_count_;
  servers_.clear();
  servers_.reserve(other.servers_.size());
  for (std::size_t i = 0; i < other.servers_.size(); ++i) {
    servers_.emplace_back(table_.get(), static_cast<ServerId>(i));
  }
  return *this;
}

void Cluster::save_state(StateWriter& w) const { table_->save_state(w); }

void Cluster::load_state(StateReader& r) {
  table_->load_state(r);
  servers_.clear();
  servers_.reserve(table_->size());
  total_ = {};
  rack_count_ = 0;
  for (std::size_t i = 0; i < table_->size(); ++i) {
    servers_.emplace_back(table_.get(), static_cast<ServerId>(i));
    total_ += servers_.back().capacity();
    rack_count_ = std::max(rack_count_, servers_.back().rack() + 1);
  }
}

void Cluster::add_server(ServerSpec spec) {
  rack_count_ = std::max(rack_count_, spec.rack + 1);
  total_ += spec.capacity;
  const ServerId id = table_->add(spec);
  servers_.emplace_back(table_.get(), id);
}

void Cluster::reserve(std::size_t servers) {
  table_->reserve(servers);
  servers_.reserve(servers);
}

Resources Cluster::total_free() const {
  Resources free;
  for (const auto& s : servers_) free += s.free();
  return free;
}

Resources Cluster::total_used() const {
  Resources used;
  for (const auto& s : servers_) used += s.used();
  return used;
}

double Cluster::utilization() const {
  if (servers_.empty()) return 0.0;
  const Resources used = total_used();
  double util = 0.0;
  for (std::size_t d = 0; d < Resources::kMaxDims; ++d) {
    if (total_[d] > 0.0) util = std::max(util, used[d] / total_[d]);
  }
  return util;
}

void Cluster::reset_allocations() {
  for (auto& s : servers_) s.reset();
}

Cluster Cluster::from_spec(const std::string& spec) {
  // Empty fields are kept, so "google-trace:" is a missing count rather
  // than a bare "google-trace".
  const std::vector<std::string> fields = cli::split(spec, ':');
  const std::string& form = fields[0];
  const auto servers = [&](std::size_t fallback) {
    if (fields.size() == 1) return fallback;
    return static_cast<std::size_t>(spec_number<ServerId>(
        spec, fields[1], 1, std::numeric_limits<ServerId>::max()));
  };
  if (form == "paper30" && fields.size() == 1) return paper30();
  if (fields.size() <= 2) {
    if (form == "google") return google_like(servers(100));
    if (form == "google-trace") return google_trace(servers(30'000));
    if (form == "gpu") return gpu_pods(servers(64));
  }
  if (form == "uniform" && fields.size() == 4) {
    const double hi = std::numeric_limits<double>::max();
    const std::size_t count = servers(0);
    const double cpu = spec_number(spec, fields[2], 0.0, hi);
    const double mem = spec_number(spec, fields[3], 0.0, hi);
    return uniform(count, {cpu, mem});
  }
  throw std::invalid_argument("'" + spec +
                              "' is not a cluster spec (paper30 | google[:N] | "
                              "google-trace[:N] | gpu[:N] | uniform:N:CPU:MEM)");
}

Cluster Cluster::paper30() {
  // Section 6.1: 2 powerful (24c/48GB), 7 normal (16c/32-64GB), 21 small
  // (8c/16GB); 2 + 7 + 21 = 30 nodes; 2*24 + 7*16 + 21*8 = 328 cores.
  // Memory for the 7 normal nodes alternates 32/64 GB ("32-64GB").
  std::vector<ServerGroup> groups;
  groups.push_back({ServerSpec{{24, 48}, 1.6, 0}, 2});
  for (int i = 0; i < 7; ++i) {
    const double mem = (i % 2 == 0) ? 32.0 : 64.0;
    groups.push_back({ServerSpec{{16, mem}, 1.25, i < 4 ? 0 : 1}, 1});
  }
  groups.push_back({ServerSpec{{8, 16}, 1.0, 1}, 11});
  groups.push_back({ServerSpec{{8, 16}, 1.0, 0}, 10});
  return Cluster(groups);
}

Cluster Cluster::google_like(std::size_t servers) {
  // Google 2011 trace machine mix (normalized): roughly half mid-size
  // machines, a band of large ones and a long tail of small ones.  We use
  // three platform classes with speeds spanning the heterogeneity the trace
  // analysis reports, spread over racks of 40.
  Cluster cluster;
  cluster.reserve(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    const int rack = static_cast<int>(i / 40);
    const std::size_t r = i % 10;
    if (r < 5) {
      cluster.add_server(ServerSpec{{16, 32}, 1.0, rack});
    } else if (r < 8) {
      cluster.add_server(ServerSpec{{32, 64}, 1.3, rack});
    } else {
      cluster.add_server(ServerSpec{{8, 16}, 0.8, rack});
    }
  }
  return cluster;
}

Cluster Cluster::google_trace(std::size_t servers) {
  // Full-scale inventory for the Section 6.3 trace replays: the paper
  // simulates >30,000 servers.  Four platform classes (the Borg trace
  // collapses to a handful of machine shapes) over racks of 48; class
  // proportions per 20 machines: 8 standard, 6 large, 3 very large, 3
  // small, with base speeds spanning the reported heterogeneity.  The
  // struct-of-arrays ServerTable keeps this linear-time and ~70 bytes per
  // server, so 300K and 1M-server inventories (the bench/scale_step.cpp
  // gate) build in milliseconds.
  Cluster cluster;
  cluster.reserve(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    const int rack = static_cast<int>(i / 48);
    const std::size_t r = i % 20;
    if (r < 8) {
      cluster.add_server(ServerSpec{{12, 48}, 1.0, rack});
    } else if (r < 14) {
      cluster.add_server(ServerSpec{{24, 96}, 1.15, rack});
    } else if (r < 17) {
      cluster.add_server(ServerSpec{{48, 192}, 1.3, rack});
    } else {
      cluster.add_server(ServerSpec{{8, 24}, 0.85, rack});
    }
  }
  return cluster;
}

Cluster Cluster::gpu_pods(std::size_t servers) {
  // Mixed ML/analytics inventory: per 8 machines, 2 are 8-GPU training
  // nodes (the A100-pod shape: fat CPU/memory host feeding 8 accelerators)
  // and 6 are CPU-only workers, over racks of 16 so a typical 8-rank gang
  // fits inside one rack when the packing cooperates — which makes the
  // rack-spread penalty of split gangs observable rather than constant.
  Cluster cluster;
  cluster.reserve(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    const int rack = static_cast<int>(i / 16);
    const std::size_t r = i % 8;
    if (r < 2) {
      cluster.add_server(ServerSpec{{64.0, 256.0, 8.0}, 1.2, rack});
    } else {
      cluster.add_server(ServerSpec{{16.0, 64.0}, 1.0, rack});
    }
  }
  return cluster;
}

Cluster Cluster::single(Resources capacity, double base_speed) {
  Cluster cluster;
  cluster.add_server(ServerSpec{capacity, base_speed, 0});
  return cluster;
}

Cluster Cluster::uniform(std::size_t servers, Resources capacity, double base_speed) {
  Cluster cluster;
  cluster.reserve(servers);
  for (std::size_t i = 0; i < servers; ++i) {
    cluster.add_server(ServerSpec{capacity, base_speed, static_cast<int>(i / 40)});
  }
  return cluster;
}

}  // namespace dollymp
