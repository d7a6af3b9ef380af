#include "dollymp/sim/machine_queue.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "dollymp/common/debug_check.h"
#include "dollymp/common/state_io.h"

namespace dollymp {

void MachineQueue::place(const MachineEvent& event) {
  const int b = std::bit_width(static_cast<std::uint64_t>(event.slot ^ floor_));
  buckets_[static_cast<std::size_t>(b)].push_back(event);
  occupied_ |= std::uint64_t{1} << b;
}

void MachineQueue::push(const MachineEvent& event) {
  DMP_DEBUG_CHECK(event.slot >= floor_, "machine event due before the queue floor");
  place(event);
  ++size_;
}

SimTime MachineQueue::min_slot() {
  DMP_DEBUG_CHECK(size_ > 0, "min_slot of an empty machine queue");
  if ((occupied_ & 1U) == 0) {
    // Redistribute the lowest non-empty bucket around its minimum: its
    // events share every bit above the one that put them there, so each
    // lands in a strictly lower bucket, and higher buckets stay valid.
    const int b = std::countr_zero(occupied_);
    std::vector<MachineEvent>& from = buckets_[static_cast<std::size_t>(b)];
    SimTime lowest = from.front().slot;
    for (const MachineEvent& e : from) lowest = std::min(lowest, e.slot);
    floor_ = lowest;
    occupied_ &= ~(std::uint64_t{1} << b);
    for (const MachineEvent& e : from) place(e);
    from.clear();
  }
  return floor_;
}

void MachineQueue::take(std::vector<MachineEvent>& batch) {
  (void)min_slot();
  batch.clear();
  batch.swap(buckets_[0]);
  occupied_ &= ~std::uint64_t{1};
  size_ -= batch.size();
  std::sort(batch.begin(), batch.end(), [](const MachineEvent& a, const MachineEvent& b) {
    return a.target != b.target ? a.target < b.target : a.kind < b.kind;
  });
}

void MachineQueue::save_state(StateWriter& w) const {
  // The pod_vec layout of the buckets concatenated in order.
  w.i64(floor_);
  w.u32(static_cast<std::uint32_t>(sizeof(MachineEvent)));
  w.u64(size_);
  for (const std::vector<MachineEvent>& bucket : buckets_) {
    w.bytes(bucket.data(), bucket.size() * sizeof(MachineEvent));
  }
}

void MachineQueue::load_state(StateReader& r, SimTime now, std::size_t servers,
                              std::size_t racks) {
  const SimTime floor = r.i64();
  std::vector<MachineEvent> events;
  r.pod_vec(events);
  if (floor < 0) {
    throw std::runtime_error("snapshot: machine queue floor " + std::to_string(floor) +
                             " is negative");
  }
  for (const MachineEvent& e : events) {
    const auto kind = static_cast<int>(e.kind);
    if (kind >= kMachineEvKinds) {
      throw std::runtime_error("snapshot: machine event kind " + std::to_string(kind) +
                               " outside the " + std::to_string(kMachineEvKinds) + " kinds");
    }
    const bool rack = e.kind == MachineEv::kRackRepair || e.kind == MachineEv::kRackFailure;
    const std::size_t targets = rack ? racks : servers;
    if (e.target < 0 || static_cast<std::size_t>(e.target) >= targets) {
      const std::string unit = rack ? "rack" : "server";
      throw std::runtime_error("snapshot: event " + unit + " " + std::to_string(e.target) +
                               " outside the " + std::to_string(targets) + " " + unit + "s");
    }
    if (e.slot < floor) {
      throw std::runtime_error("snapshot: machine event slot " + std::to_string(e.slot) +
                               " before the queue floor " + std::to_string(floor));
    }
    if (e.slot <= now) {
      throw std::runtime_error("snapshot: event slot " + std::to_string(e.slot) +
                               " not after the saved clock " + std::to_string(now));
    }
  }
  for (std::vector<MachineEvent>& bucket : buckets_) bucket.clear();
  occupied_ = 0;
  size_ = 0;
  floor_ = floor;
  for (const MachineEvent& e : events) push(e);
}

}  // namespace dollymp
