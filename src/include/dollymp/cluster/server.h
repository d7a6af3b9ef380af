// A heterogeneous server: capacity, base speed, rack placement, allocation.
//
// Section 2 attributes stragglers to (i) server heterogeneity and (ii)
// time-varying background load on the physical hosts.  We model (i) with a
// static per-server base speed factor and (ii) with a pluggable background
// slowdown process (see background_load.h).  A copy placed on server s at
// time t runs at s.effective_speed(t) times nominal rate.
//
// Data layout: since the struct-of-arrays overhaul, per-server hot state
// (capacity, used, speed, flags, counters) lives in contiguous parallel
// arrays inside ServerTable, and Server is a 16-byte {table, id} view with
// the same accessor surface the object layout had.
#pragma once

#include <cstdint>
#include <vector>

#include "dollymp/common/debug_check.h"
#include "dollymp/common/resources.h"

namespace dollymp {

class StateWriter;
class StateReader;

using ServerId = std::int32_t;
inline constexpr ServerId kInvalidServer = -1;

/// Immutable description of one server (construction-time only; the hot
/// state never stores one).
struct ServerSpec {
  Resources capacity;      ///< (C_i cores, M_i GB) of Eq. (5).
  double base_speed = 1.0; ///< >0; 1.0 is a "normal" node, >1 is a fast node.
  int rack = 0;            ///< rack index for the locality model.
};

class Server;

/// Struct-of-arrays storage for every server's hot state.  Cluster owns
/// exactly one; Server views index into it.
class ServerTable {
 public:
  ServerTable() = default;

  void reserve(std::size_t servers);

  /// Append a row.  Returns the new server's id (== row index).
  ServerId add(const ServerSpec& spec);

  [[nodiscard]] std::size_t size() const { return capacity_.size(); }

  /// Checkpoint/restore: the full table — immutable spec columns (capacity,
  /// speed, rack) *and* mutable hot state (used, slow factor, copy
  /// counters, flags) — so a snapshot is self-contained and a fresh
  /// process can rebuild the cluster without re-running the inventory
  /// builder.  load_state overwrites every column.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

  /// Bytes of hot-state storage.  Feeds the bytes-per-server scale gate.
  [[nodiscard]] std::size_t memory_bytes() const {
    return capacity_.capacity() * sizeof(Resources) + used_.capacity() * sizeof(Resources) +
           base_speed_.capacity() * sizeof(double) +
           slow_factor_.capacity() * sizeof(double) +
           rack_.capacity() * sizeof(std::int32_t) +
           running_copies_.capacity() * sizeof(std::int32_t) +
           flags_.capacity() * sizeof(std::uint8_t);
  }

 private:
  friend class Server;

  static constexpr std::uint8_t kDown = 1u << 0;
  static constexpr std::uint8_t kQuarantined = 1u << 1;

  std::vector<Resources> capacity_;
  std::vector<Resources> used_;
  std::vector<double> base_speed_;
  std::vector<double> slow_factor_;
  std::vector<std::int32_t> rack_;
  std::vector<std::int32_t> running_copies_;
  std::vector<std::uint8_t> flags_;
};

/// View over one ServerTable row: the mutable allocation state of a single
/// server inside a simulation.  Copying a Server copies the view, not the
/// row.
class Server {
 public:
  Server(ServerTable* table, ServerId id) : table_(table), id_(id) {}

  [[nodiscard]] ServerId id() const { return id_; }
  [[nodiscard]] const Resources& capacity() const { return table_->capacity_[row()]; }
  [[nodiscard]] const Resources& used() const { return table_->used_[row()]; }
  [[nodiscard]] Resources free() const { return (capacity() - used()).clamped(); }
  [[nodiscard]] int rack() const { return table_->rack_[row()]; }
  [[nodiscard]] double base_speed() const { return table_->base_speed_[row()]; }

  /// Up and not quarantined: the server may take new placements.  This is
  /// can_fit's flag rule and the PlacementIndex's candidacy rule.
  [[nodiscard]] bool placeable() const { return table_->flags_[row()] == 0; }

  /// True when `demand` fits in the remaining capacity and the server is
  /// placeable().
  [[nodiscard]] bool can_fit(const Resources& demand) const {
    const auto i = row();
    return placeable() && (table_->used_[i] + demand).fits_within(table_->capacity_[i]);
  }

  /// Failure-injection state: a down server accepts no allocations (its
  /// running copies are killed by the simulator when it goes down).
  void set_down(bool down) { set_flag(ServerTable::kDown, down); }
  [[nodiscard]] bool is_down() const { return (table_->flags_[row()] & ServerTable::kDown) != 0; }

  /// Resilience-policy state: a quarantined server is up (running copies
  /// keep running) but accepts no new placements until probation releases
  /// it.  Set via SchedulerContext::set_server_quarantined; the simulator
  /// reports the change to its PlacementIndex like any other.
  void set_quarantined(bool quarantined) { set_flag(ServerTable::kQuarantined, quarantined); }
  [[nodiscard]] bool is_quarantined() const {
    return (table_->flags_[row()] & ServerTable::kQuarantined) != 0;
  }

  /// Fail-slow ("gray failure") state: new copies launched on this server
  /// take slow_factor times longer while > 1.  1.0 means healthy; the
  /// simulator multiplies copy durations by this, so the healthy path is
  /// bit-exact (x * 1.0 == x for finite x).
  void set_slow_factor(double factor) { table_->slow_factor_[row()] = factor; }
  [[nodiscard]] double slow_factor() const { return table_->slow_factor_[row()]; }

  /// Reserve resources; returns false (and changes nothing) if they do not
  /// fit.  The simulator is the only caller, so all capacity accounting
  /// (Eq. 5) funnels through this one check.
  bool allocate(const Resources& demand);

  /// Release previously allocated resources.
  void release(const Resources& demand);

  /// Running-copy counters (for utilization reporting).
  void note_copy_started() { ++table_->running_copies_[row()]; }
  void note_copy_finished() {
    DMP_DEBUG_CHECK(table_->running_copies_[row()] > 0,
                    "Server::note_copy_finished: running-copy counter underflow");
    --table_->running_copies_[row()];
  }
  [[nodiscard]] int running_copies() const { return table_->running_copies_[row()]; }

  /// Reset allocation state (between simulation runs).
  void reset() {
    const auto i = row();
    table_->used_[i] = {};
    table_->running_copies_[i] = 0;
    table_->flags_[i] = 0;
    table_->slow_factor_[i] = 1.0;
  }

 private:
  [[nodiscard]] std::size_t row() const { return static_cast<std::size_t>(id_); }
  void set_flag(std::uint8_t bit, bool on) {
    if (on) {
      table_->flags_[row()] |= bit;
    } else {
      table_->flags_[row()] &= static_cast<std::uint8_t>(~bit);
    }
  }

  ServerTable* table_;
  ServerId id_;
};

}  // namespace dollymp
