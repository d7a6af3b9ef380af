// The machine-event queue: crash, rack and fail-slow timers, keyed by slot.
//
// With crashes or fail-slow on, every server keeps one pending timer (two
// with both), so at fleet scale these timers are nearly all of the pending
// events and nearly all of the pops.  They live here instead of in
// SimCore's main heap, in a monotone radix queue:
//
//   * The queue remembers its floor, the last slot taken.  Every pending
//     event is due at or after it, and an event goes to bucket
//     bit_width(slot XOR floor): bucket 0 holds the floor slot's batch, and
//     bucket b > 0 the events whose slot first differs from the floor at
//     bit b-1.  A push is O(1).
//   * When bucket 0 is empty, the lowest non-empty bucket is redistributed
//     around its minimum slot, which becomes the floor; all of its events
//     land in lower buckets, so each event moves at most about
//     log2(delay) times before it is taken.
//   * take() swaps bucket 0 out whole and sorts it by (target, kind).
//
// That is the order the single event heap used to give machine events:
// they popped before every other event of their slot, by (slot, target,
// kind), because their remaining fields held fixed sentinels.  Every fault
// delay is at least one slot, so the events a batch re-arms never join the
// batch being drained.  The pop sequence, and with it every failure-stream
// draw, is therefore unchanged (docs/ALGORITHMS.md §12).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dollymp/sim/types.h"

namespace dollymp {

class StateWriter;
class StateReader;

/// The machine-event kinds.  Their values are the same-slot order for one
/// target: a repair or recovery sorts before its failure or onset, so a
/// machine that bounces within one slot ends up healthy.
enum class MachineEv : std::uint8_t {
  kServerRepair = 0,
  kServerFailure = 1,
  kRackRepair = 2,   ///< target is a rack index
  kRackFailure = 3,  ///< target is a rack index
  kFailSlowRecover = 4,
  kFailSlowOnset = 5,
};
inline constexpr int kMachineEvKinds = 6;

/// One pending machine event.  16 bytes with explicit, zeroed padding:
/// snapshots copy it byte for byte.
struct MachineEvent {
  SimTime slot = 0;
  std::int32_t target = 0;  ///< server id, or rack index for the rack kinds
  MachineEv kind = MachineEv::kServerFailure;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(MachineEvent) == 16);

class MachineQueue {
 public:
  /// Queue `event`, due at or after floor().
  void push(const MachineEvent& event);
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The earliest pending slot (the queue is not empty).  Moves that slot's
  /// events into bucket 0, so it also becomes the floor.
  [[nodiscard]] SimTime min_slot();
  /// Replace `batch` with every event due at min_slot(), sorted by (target,
  /// kind).  `batch`'s storage becomes the next bucket 0, so a drain loop
  /// that reuses one vector allocates nothing in the steady state.
  void take(std::vector<MachineEvent>& batch);

  /// Snapshot: the floor, then every event in bucket order.
  void save_state(StateWriter& w) const;
  /// Restore what save_state wrote, pushing the events in stored order:
  /// that rebuilds identical buckets, so the queue re-serializes to the
  /// same bytes.  Rejects, with a `snapshot:` std::runtime_error, a
  /// negative floor, a slot before the floor or at or before `now`, a kind
  /// outside MachineEv, and a target outside the `servers` (the `racks`
  /// for the rack kinds).
  void load_state(StateReader& r, SimTime now, std::size_t servers, std::size_t racks);

 private:
  static constexpr int kBuckets = 64;  ///< bit_width of a non-negative i64 XOR

  void place(const MachineEvent& event);

  std::array<std::vector<MachineEvent>, kBuckets> buckets_;
  std::uint64_t occupied_ = 0;  ///< bit b set while buckets_[b] is non-empty
  std::size_t size_ = 0;
  SimTime floor_ = 0;
};

}  // namespace dollymp
