// Data locality: input blocks, replicas, and placement levels.
//
// Section 5 keeps the HDFS convention of two replicas per data block; clones
// are launched to match a task's locality preferences, and when the first
// copy of a task completes the AM "keeps another running copy with the best
// data locality level and kills the remaining".  We model each task's input
// as one block with `replicas` placements and classify any (task, server)
// pair into NODE / RACK / OFF_RACK, with a configurable remote-read runtime
// penalty.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"

namespace dollymp {

enum class LocalityLevel : std::uint8_t { kNode = 0, kRack = 1, kOffRack = 2 };

[[nodiscard]] const char* to_string(LocalityLevel level);

struct LocalityConfig {
  bool enabled = true;
  int replicas = 2;              ///< HDFS-style replica count (Section 5)
  double rack_penalty = 1.05;    ///< runtime multiplier for rack-local reads
  double off_rack_penalty = 1.15;///< runtime multiplier for off-rack reads
};

/// Replica placement of one task's input block.
struct BlockPlacement {
  std::vector<ServerId> replicas;
};

class LocalityModel {
 public:
  LocalityModel(LocalityConfig config, const Cluster& cluster)
      : config_(config), num_servers_(cluster.size()) {
    racks_.reserve(cluster.size());
    for (const auto& s : cluster.servers()) racks_.push_back(s.rack());
  }

  [[nodiscard]] const LocalityConfig& config() const { return config_; }

  /// Draw replica locations for one block: replicas land on distinct servers
  /// and (when the cluster has >1 rack) at least two racks, mirroring the
  /// HDFS placement policy.
  [[nodiscard]] BlockPlacement place_block(Rng& rng) const;

  /// Locality level of running a copy on `server` given the block placement.
  [[nodiscard]] LocalityLevel classify(const BlockPlacement& block, ServerId server) const;

  /// Runtime penalty multiplier (>= 1) of the given level.
  [[nodiscard]] double penalty(LocalityLevel level) const;

 private:
  LocalityConfig config_;
  std::size_t num_servers_;
  std::vector<int> racks_;
};

}  // namespace dollymp
