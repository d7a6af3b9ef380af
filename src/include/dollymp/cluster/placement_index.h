// Incremental free-capacity index over a Cluster.
//
// The linear placement helpers (best_fit_server & friends) scan every server
// per copy placed, which makes a scheduler invocation O(placements x servers)
// — fine at the paper's 30-node inventory, hopeless at the 30K-server trace
// scale of Section 6.3.  PlacementIndex maintains, incrementally on every
// allocation / release / failure / repair, a two-level grouping that answers
// placement queries in time proportional to the number of *distinct
// allocation states*, not the number of servers:
//
//   * Servers are partitioned into *resource classes* (exact capacity
//     equality).  Trace inventories have a handful of machine shapes, so a
//     demand that exceeds a class capacity skips the whole class.
//   * Within a class, up servers are grouped by their exact used() vector.
//     Every demand in the system lives on the trace model's grid (integral
//     cores, 0.5 GB memory steps), so used vectors are sums of a small
//     palette and the number of distinct values stays in the dozens even
//     with 30,000 servers under churn.  All members of a group expose
//     value-identical free vectors, hence identical fit answers and
//     identical best-fit scores: one evaluation per group decides every
//     member at once, and the group's lowest id (members.back() — members are
//     kept sorted descending, so low-id churn shifts only a short suffix)
//     is the tie-break winner for the whole group.
//   * Groups are pooled per class and found through an insert-only map from
//     used vector to pool slot.  A drained group is unlinked from the
//     active list but keeps its slot and its members vector's capacity, so
//     steady-state maintenance — allocation churn revisiting the same used
//     vectors — performs no heap allocation.
//   * A hierarchical rack -> capacity-class level serves the rack-local
//     pass of locality_aware_server: each rack holds one member bucket per
//     resource class present in it, with an up-count.  A demand that
//     exceeds a bucket's class capacity — or a bucket whose members are all
//     down/quarantined — skips the whole bucket without touching a server.
//     Pruning is bit-identical to the flat per-rack scan because every
//     pruned server would have failed can_fit, and the winner comparator
//     is enumeration-order independent.
//
// Determinism contract: every query reproduces the corresponding linear scan
// *bit for bit*.  Group membership is exact value equality of used(), and
// both the fit test ((used + demand).fits_within(capacity)) and the score
// (demand.dot((capacity - used).clamped())) are the identical float
// expressions Server::can_fit and Server::free feed the linear scan, so one
// group-level evaluation equals every member's.  The winner is selected
// with the explicit comparator (score > best) || (score == best && id <
// best_id) — exactly the result of the ascending-id scan with a strict `>`.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/common/resources.h"

namespace dollymp {

class ThreadPool;
struct ShardStats;

class PlacementIndex {
 public:
  /// Builds the index over `cluster`'s current state.  The cluster must
  /// outlive the index and keep a stable server set (allocation, up/down
  /// state may change — report those through the hooks below).
  explicit PlacementIndex(const Cluster& cluster);

  // ----- maintenance hooks ---------------------------------------------------

  /// Server `id`'s allocation changed (allocate or release): move it to the
  /// group matching its new used vector.  O(log #groups + log group size).
  void on_allocation_changed(ServerId id);
  /// Server `id` went down: remove it from all candidate structures.
  void on_server_down(ServerId id);
  /// Server `id` came back up: re-index it from its current allocation.
  void on_server_up(ServerId id);

  /// Attach the deterministic parallel core's worker pool (and the
  /// shard-stats accumulator its dispatches note into).  With a pool, the
  /// non-neutral weighted_best_fit walk — the one query that visits every
  /// member individually — shards its member scan across the pool; the
  /// per-shard winners merge under the same total-order comparator the
  /// serial walk maximizes, so the answer is bit-identical for any thread
  /// count.  Null (the default) keeps every query serial.
  void set_parallelism(ThreadPool* pool, ShardStats* stats) {
    pool_ = pool;
    shard_stats_ = stats;
  }

  /// Per-server score multiplier used by weighted_best_fit (DollyMP's
  /// straggler-aware placement weight).  Defaults to 1.0 for every server.
  void set_multiplier(ServerId id, double weight);
  [[nodiscard]] double multiplier(ServerId id) const;

  // ----- queries (bit-identical to the linear scans) -------------------------
  //
  // best_fit, first_fit and the neutral-multiplier weighted_best_fit answer
  // from a batched walk: the capacity-group walk for a demand is captured
  // once into a cached candidate list and replayed for every same-demand
  // query until the group pool grows.  A Group's used vector — and
  // therefore its per-demand fit answer and score — is immutable for the
  // lifetime of its pool slot; only its member list churns.  So one pass
  // over the pool per (demand, pool generation) captures every group that
  // can ever fit, with its score precomputed, and a query is a flat scan of
  // that list skipping currently-drained groups: the candidate set is the
  // active fitting groups, scores are the identical float expressions, and
  // `beats` is enumeration-order independent — bit-identical decisions,
  // one capacity-group walk per wakeup batch instead of one per task.

  /// Equivalent of best_fit_server(cluster, demand).
  [[nodiscard]] ServerId best_fit(const Resources& demand) const;

  /// Equivalent of first_fit_server(cluster, demand).
  [[nodiscard]] ServerId first_fit(const Resources& demand) const;

  /// Equivalent of locality_aware_server(cluster, locality, task) given the
  /// task's block placement and demand.
  [[nodiscard]] ServerId locality_aware(const LocalityModel& locality,
                                        const BlockPlacement& block,
                                        const Resources& demand) const;

  /// Equivalent of DollyMP's straggler-aware pick: maximize
  /// demand.dot(free) * multiplier(id), boosted by 1.25 when the server
  /// holds a replica of `boost_block` (pass nullptr for no boost), ties to
  /// the lowest id.  While every multiplier is exactly 1.0 (the scorer's
  /// cold prior) groups collapse as in best_fit, with each fitting replica
  /// overlaid as its own boosted candidate; once any multiplier deviates
  /// the scan walks group members individually (still skipping non-fitting
  /// classes and groups, and sharing the group's base score).
  [[nodiscard]] ServerId weighted_best_fit(const Resources& demand,
                                           const BlockPlacement* boost_block) const;

  /// All up servers that can_fit(demand), ascending id — test/debug utility
  /// for validating candidate enumeration against a brute-force scan (not
  /// used on the hot path; allocates).
  [[nodiscard]] std::vector<ServerId> fitting_candidates(const Resources& demand) const;

  // ----- observability -------------------------------------------------------

  struct Counters {
    std::uint64_t queries = 0;          ///< placement queries answered
    std::uint64_t servers_scanned = 0;  ///< candidate evaluations (group-level
                                        ///< where groups collapse, per-server
                                        ///< where they cannot)
    std::uint64_t updates = 0;          ///< maintenance events applied
    std::uint64_t batch_hits = 0;       ///< queries answered from a cached walk
    std::uint64_t batch_rebuilds = 0;   ///< cached walks (re)built
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  [[nodiscard]] std::size_t class_count() const { return classes_.size(); }
  [[nodiscard]] std::size_t size() const { return class_of_.size(); }

 private:
  static constexpr std::int32_t kNoGroup = -1;

  /// Up servers of one class whose used() vectors are value-identical.
  struct Group {
    Resources used;
    std::vector<ServerId> members;  ///< descending; capacity kept when drained
    std::int32_t prev = kNoGroup;   ///< active-list links (empty => unlinked)
    std::int32_t next = kNoGroup;
  };

  struct ResourceClass {
    Resources capacity;
    std::vector<Group> groups;  ///< pool; slots are never reclaimed
    /// used -> pool slot.  Insert-only: churn revisits the same used
    /// vectors, so in steady state every lookup hits.
    std::map<std::array<double, Resources::kMaxDims>, std::int32_t> lookup;
    std::int32_t active_head = kNoGroup;  ///< list of groups with members
  };

  /// One precomputed candidate of a batched walk: pool-slot indices (the
  /// groups vector reallocates as the pool grows, so no pointers) plus the
  /// immutable per-demand score.
  struct BatchEntry {
    std::int32_t cls;
    std::int32_t gid;
    double score;  ///< demand.dot(group_free(capacity, used))
  };
  /// Cached capacity-group walk for one exact demand, valid for one pool
  /// generation (group creation invalidates: a new group could fit).
  struct BatchCache {
    Resources demand;
    std::uint64_t generation = 0;
    bool valid = false;
    std::vector<BatchEntry> entries;  ///< capacity kept across rebuilds
  };
  /// The cached walk for `demand`, rebuilt on miss or stale generation.
  [[nodiscard]] const BatchCache& batched_walk(const Resources& demand) const;
  [[nodiscard]] const Group& group_at(const BatchEntry& e) const {
    const ResourceClass& cls = classes_[static_cast<std::size_t>(e.cls)];
    return cls.groups[static_cast<std::size_t>(e.gid)];
  }

  /// Pool slot for `used`, creating the group on first sight.
  [[nodiscard]] std::int32_t group_for(ResourceClass& cls, const Resources& used);
  void add_member(ResourceClass& cls, std::int32_t gid, ServerId id);
  void remove_member(ResourceClass& cls, std::int32_t gid, ServerId id);
  void index_server(ServerId id);
  void deindex_server(ServerId id);

  const Cluster* cluster_;
  std::vector<ResourceClass> classes_;
  std::vector<std::int32_t> class_of_;  // server -> class index
  std::vector<std::int32_t> group_of_;  // server -> pool slot; kNoGroup = down
  std::vector<double> multiplier_;
  int nonneutral_ = 0;  // count of multipliers != 1.0 (0 => groups collapse)

  /// Bumped whenever any class's group pool grows — the sole event that can
  /// add a candidate a cached walk does not know about.
  std::uint64_t pool_generation_ = 0;
  /// A handful of demand-keyed slots with round-robin eviction: the task
  /// demands in flight per wakeup come from a small palette (the trace
  /// model's grid), so this stays effectively fully associative.
  static constexpr std::size_t kBatchSlots = 8;
  mutable std::vector<BatchCache> batch_;
  mutable std::size_t batch_clock_ = 0;  ///< next slot to evict

  /// One capacity class's members within one rack: the hierarchical
  /// rack -> class level.  Member lists are static (built once, ascending);
  /// only the up-count changes as servers fail/recover/quarantine.
  struct RackClassBucket {
    std::int32_t cls = -1;
    std::uint32_t up_count = 0;     ///< members currently indexed (placeable)
    std::vector<ServerId> members;  ///< ascending ids
  };
  std::vector<std::vector<RackClassBucket>> rack_classes_;  // rack -> buckets
  /// The (rack, class) bucket holding `id` (built at construction).
  [[nodiscard]] RackClassBucket& bucket_of(ServerId id);
  mutable Counters counters_;

  /// One fitting group of the weighted member walk: the group plus its
  /// shared base score (evaluated once, exactly as the serial walk does).
  struct WeightedSpan {
    const Group* group;
    double base;
  };

  ThreadPool* pool_ = nullptr;        ///< parallel core's pool; null = serial
  ShardStats* shard_stats_ = nullptr;
  // Scratch for the sharded weighted walk, reused across queries (cleared,
  // never shrunk).  Queries run on the scheduling thread only; shard bodies
  // touch disjoint slots of scratch_best_/scratch_score_.
  mutable std::vector<WeightedSpan> scratch_spans_;
  mutable std::vector<std::size_t> scratch_offsets_;  // span -> first member index
  mutable std::vector<ServerId> scratch_best_;
  mutable std::vector<double> scratch_score_;
};

}  // namespace dollymp
