// Pooled arena storage for CopyRuntime records.
//
// Pre-overhaul, every TaskRuntime owned a std::vector<CopyRuntime>: one
// heap allocation per task that ever ran, growing (and reallocating) as
// clones, speculative backups and fault re-executions appended.  At trace
// scale the simulator launches millions of copies, so copy storage churn
// was the last steady-state allocator in the hot loop.
//
// CopySlab replaces those vectors with extents carved out of large stable
// blocks:
//
//   * Storage is a list of fixed-size blocks (kBlockCopies records each).
//     Blocks are never freed or moved while the slab lives, so a
//     CopyRuntime* stays valid until its extent is released — the same
//     stability guarantee scheduler code relied on between vector growths.
//   * A task's copies live in ONE contiguous extent, so CopyList exposes
//     the full random-access vector interface (data(), operator[],
//     pointer-difference indexing) with zero indirection on iteration.
//   * Extent capacities are powers of two.  Released extents go to a
//     per-capacity free list and are handed back verbatim to the next
//     request, so steady-state churn — jobs completing while new jobs
//     materialize — recycles warm memory instead of allocating.  The
//     acquire/reuse counters feed SimStats and the allocations-per-step
//     bench gates.
//
// Thread safety: none.  A run is single-threaded, like the rest of the
// runtime state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dollymp/cluster/locality.h"
#include "dollymp/cluster/server.h"
#include "dollymp/sim/types.h"

namespace dollymp {

/// One running (or finished/killed) copy of a task.  Kept a plain struct:
/// the slab stores these by value, densely.  40 bytes with explicit, zeroed
/// padding: snapshots copy it byte for byte.
struct CopyRuntime {
  ServerId server = kInvalidServer;
  std::uint8_t pad0[4] = {};
  SimTime start = kNever;
  SimTime finish = kNever;      ///< predicted completion slot (see runtime_state.h)
  LocalityLevel locality = LocalityLevel::kNode;
  bool active = false;          ///< currently occupying resources
  bool killed = false;          ///< terminated because a sibling finished first
  std::uint8_t pad1[5] = {};
  double base_seconds = 0.0;    ///< sampled duration before slot rounding
};
static_assert(sizeof(CopyRuntime) == 40);

class CopySlab {
 public:
  /// Copies per storage block.  Also the largest extent a single task can
  /// hold — far above any realistic copy count (the concurrent cap is
  /// SimConfig::max_copies_per_task; only fault-driven re-execution grows
  /// the historical record past it).
  static constexpr std::size_t kBlockCopies = 4096;

  CopySlab() = default;
  CopySlab(const CopySlab&) = delete;
  CopySlab& operator=(const CopySlab&) = delete;

  struct Extent {
    CopyRuntime* data = nullptr;
    std::uint32_t capacity = 0;
  };

  /// Hand out an extent with capacity >= `min_capacity` (rounded up to a
  /// power of two), recycled from the free list when one is available.
  [[nodiscard]] Extent acquire(std::uint32_t min_capacity);

  /// Return an extent to its capacity's free list.  The caller must pass
  /// back exactly what acquire() returned.
  void release(Extent extent);

  /// Drop every block and free list (invalidates all extents).
  void clear();

  // ---- observability --------------------------------------------------------

  struct Counters {
    std::uint64_t acquires = 0;        ///< extents handed out
    std::uint64_t reuses = 0;          ///< ... of which came from a free list
    std::uint64_t block_allocations = 0;  ///< fresh storage blocks allocated
    std::uint64_t copies_capacity = 0;    ///< total copy slots in live blocks
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Bytes of copy storage held (blocks only; the free-list index is
  /// negligible).  Feeds the bytes-per-server scale accounting.
  [[nodiscard]] std::size_t memory_bytes() const {
    return blocks_.size() * kBlockCopies * sizeof(CopyRuntime);
  }

 private:
  /// Smallest c with (1u << c) >= n (n <= kBlockCopies).
  [[nodiscard]] static std::uint32_t capacity_class(std::uint32_t n);

  std::vector<std::unique_ptr<CopyRuntime[]>> blocks_;
  std::size_t bump_block_ = 0;  ///< block being carved
  std::size_t bump_used_ = 0;   ///< copies carved from it so far
  /// free_[c] holds extents of capacity 1 << c.
  std::vector<std::vector<CopyRuntime*>> free_;
  Counters counters_;
};

/// The per-task view over a slab extent: the subset of std::vector's
/// interface the scheduler/simulator code uses, backed by CopySlab
/// storage.  Move-only (two lists must never own one extent).
class CopyList {
 public:
  CopyList() = default;
  CopyList(CopyList&& other) noexcept { steal(other); }
  CopyList& operator=(CopyList&& other) noexcept {
    if (this != &other) {
      release_storage();
      steal(other);
    }
    return *this;
  }
  CopyList(const CopyList&) = delete;
  CopyList& operator=(const CopyList&) = delete;
  ~CopyList() { release_storage(); }

  /// Attach the backing slab (materialization does this; hand-built tasks
  /// in tests must bind before the first push_back).  The slab must
  /// outlive the list.
  void bind(CopySlab* slab) { slab_ = slab; }
  [[nodiscard]] CopySlab* slab() const { return slab_; }

  [[nodiscard]] CopyRuntime* begin() { return data_; }
  [[nodiscard]] CopyRuntime* end() { return data_ + size_; }
  [[nodiscard]] const CopyRuntime* begin() const { return data_; }
  [[nodiscard]] const CopyRuntime* end() const { return data_ + size_; }
  [[nodiscard]] CopyRuntime* data() { return data_; }
  [[nodiscard]] const CopyRuntime* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] CopyRuntime& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const CopyRuntime& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] CopyRuntime& back() { return data_[size_ - 1]; }
  [[nodiscard]] const CopyRuntime& back() const { return data_[size_ - 1]; }

  void push_back(const CopyRuntime& copy);
  void reserve(std::size_t n);

  /// Forget the elements but keep the extent (vector::clear semantics —
  /// steady-state reset paths stay allocation-free).
  void clear() { size_ = 0; }

  /// Return the extent to the slab (job-completion recycling).  The list
  /// is empty and unallocated afterwards but stays bound.
  void release_storage();

 private:
  void steal(CopyList& other) {
    slab_ = other.slab_;
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  CopySlab* slab_ = nullptr;
  CopyRuntime* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace dollymp
