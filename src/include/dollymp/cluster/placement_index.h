// Incremental free-capacity index over a Cluster: the one implementation of
// every placement query the simulator answers.
//
// A linear scan (best_fit_server(const Cluster&, ...) & friends, kept as
// test references) visits every server per copy placed, which makes a
// scheduler invocation O(placements x servers) — fine at the paper's
// 30-node inventory, hopeless at the 30K-server trace scale of Section 6.3.
// PlacementIndex maintains a two-level grouping that answers placement
// queries in time proportional to the number of *distinct allocation
// states* (plus the servers with a learned weight), not the number of
// servers; no maintenance hook and no query does work that grows with a
// group's size:
//
//   * Servers are partitioned into *resource classes* (exact capacity
//     equality).  Trace inventories have a handful of machine shapes, so a
//     demand that exceeds a class capacity skips the whole class.  Each
//     class numbers its servers with dense *ranks* that ascend with the
//     server id.
//   * Within a class, candidate servers — up and not quarantined, the flag
//     rule of Server::can_fit — are grouped by their exact used() vector.
//     Every demand in the system lives on the trace model's grid (integral
//     cores, 0.5 GB memory steps), so used vectors are sums of a small
//     palette: a benchmark run over 30K-1M servers peaks at 23 to about
//     1,200 groups.  All members of a group expose
//     value-identical free vectors, hence identical fit answers and
//     identical best-fit scores: one evaluation per group decides every
//     member at once, and the group's lowest set rank — its lowest id — is
//     the tie-break winner for the whole group.
//   * A group's members are a two-level bitset over the class's ranks (leaf
//     words plus a summary word per 64 leaf words), with a member count and
//     a cached lowest rank: insert and erase are O(1), and the lowest rank
//     is recomputed with a forward scan only when the lowest member leaves.
//   * Groups are pooled per class and found through an insert-only map from
//     used vector to pool slot.  A drained group keeps its slot and its
//     bitset words, so steady-state maintenance — allocation churn
//     revisiting the same used vectors — performs no heap allocation.
//   * Every change is applied lazily through one hook: on_server_changed
//     only marks the server dirty, and the next query first re-applies the
//     candidacy rule to every dirty server and moves each candidate to the
//     group of its current used().  An allocate/release pair, a crash or a
//     quarantine with no query in between costs two flag writes.
//
// Determinism contract: every query reproduces the corresponding linear scan
// *bit for bit*.  Group membership is exact value equality of used(), and
// both the fit test ((used + demand).fits_within(capacity)) and the score
// (demand.dot((capacity - used).clamped())) are the identical float
// expressions Server::can_fit and Server::free feed the linear scan, so one
// group-level evaluation equals every member's.  The winner is selected
// with the explicit comparator (score > best) || (score == best && id <
// best_id) — exactly the result of the ascending-id scan with a strict `>`.
// Because that comparator is a total order, no decision depends on the
// order in which groups were created or are visited.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/common/resources.h"

namespace dollymp {

class PlacementIndex {
 public:
  /// Builds the index over `cluster`'s current state.  The cluster must
  /// outlive the index and keep a stable server set (allocation, down and
  /// quarantine state may change — report each change through
  /// on_server_changed).
  explicit PlacementIndex(const Cluster& cluster);

  /// Server `id`'s allocation, down flag or quarantine flag changed: mark it
  /// dirty.  O(1); the next query re-applies the candidacy rule to it and
  /// moves it to the group matching its used vector.
  void on_server_changed(ServerId id);

  /// Per-server score multiplier used by weighted_best_fit (DollyMP's
  /// straggler-aware placement weight).  Defaults to 1.0 for every server.
  /// Must not be negative (the scorer's weights are reciprocals of positive
  /// slowdown estimates); a negative weight throws std::invalid_argument.
  void set_multiplier(ServerId id, double weight);
  [[nodiscard]] double multiplier(ServerId id) const;

  // ----- queries (bit-identical to the linear scans) -------------------------
  //
  // Every query first applies the pending changes (see on_server_changed),
  // so queries are non-const.  best_fit, first_fit and weighted_best_fit
  // answer from a batched walk: the capacity-group walk for a demand is
  // captured once into a cached candidate list and
  // replayed for every same-demand query until the group pool grows.  A
  // Group's used vector — and therefore its per-demand fit answer and
  // score — is immutable for the lifetime of its pool slot; only its
  // members churn.  So one pass over the pool per (demand, pool generation)
  // captures every group that can ever fit, with its score precomputed, and
  // a query is a flat scan of that list skipping currently-drained groups:
  // the candidate set is the active fitting groups, scores are the
  // identical float expressions, and `beats` is enumeration-order
  // independent — bit-identical decisions, one capacity-group walk per
  // wakeup batch instead of one per task.

  /// Equivalent of best_fit_server(cluster, demand).
  [[nodiscard]] ServerId best_fit(const Resources& demand);

  /// Equivalent of first_fit_server(cluster, demand).
  [[nodiscard]] ServerId first_fit(const Resources& demand);

  /// Equivalent of DollyMP's straggler-aware pick: maximize
  /// demand.dot(free) * multiplier(id), boosted by 1.25 when the server
  /// holds a replica of `boost_block` (pass nullptr for no boost), ties to
  /// the lowest id.  Three candidate sets cover every server: per active
  /// fitting group, its lowest-id member with multiplier exactly 1.0 at the
  /// group score; every server whose multiplier is not 1.0, individually;
  /// and every fitting replica of `boost_block`, boosted.  A query costs
  /// O(fitting groups + non-neutral servers + replicas).
  [[nodiscard]] ServerId weighted_best_fit(const Resources& demand,
                                           const BlockPlacement* boost_block);

  /// All servers that can_fit(demand), ascending id — test/debug utility
  /// for validating candidate enumeration against a brute-force scan (not
  /// used on the hot path; walks the whole group pool and allocates).
  [[nodiscard]] std::vector<ServerId> fitting_candidates(const Resources& demand);

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
  static constexpr std::uint32_t kNoRank = UINT32_MAX;

  /// A set of class-local ranks: leaf words hold one bit per rank, summary
  /// words one bit per non-empty leaf word.  Both live in one vector (the
  /// summary after the leaves), sized once by reset and never reallocated
  /// afterwards, so a group costs a single allocation.
  class RankSet {
   public:
    void reset(std::size_t ranks);
    void insert(std::uint32_t rank);
    void erase(std::uint32_t rank);
    [[nodiscard]] bool empty() const { return count_ == 0; }
    /// Lowest member, kNoRank when empty (cached, O(1)).
    [[nodiscard]] std::uint32_t lowest() const { return lowest_; }
    /// Lowest member >= `from`, kNoRank when there is none.
    [[nodiscard]] std::uint32_t next(std::uint32_t from) const;

   private:
    std::vector<std::uint64_t> words_;  ///< leaves_ leaf words, then summary
    std::size_t leaves_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t lowest_ = kNoRank;
  };

  /// Candidate servers of one class whose used() vectors are
  /// value-identical.
  struct Group {
    Resources used;
    RankSet members;  ///< words kept when drained
  };

  struct ResourceClass {
    Resources capacity;
    std::vector<ServerId> ids;  ///< rank -> server, ascending
    std::vector<Group> groups;  ///< pool; slots are never reclaimed
    /// used -> pool slot.  Insert-only: churn revisits the same used
    /// vectors, so in steady state every lookup hits.
    std::map<std::array<double, Resources::kMaxDims>, std::int32_t> lookup;
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
  [[nodiscard]] const BatchCache& batched_walk(const Resources& demand);

  /// regroup() every dirty server.
  void flush();
  /// Apply the candidacy rule to server `i`: a placeable server is a member
  /// of the group of its current used(), any other server of no group.
  void regroup(std::size_t i);
  /// Pool slot for `used`, creating the group on first sight.
  [[nodiscard]] std::int32_t group_for(ResourceClass& cls, const Resources& used);

  const Cluster* cluster_;
  std::vector<ResourceClass> classes_;
  std::vector<std::int32_t> class_of_;  // server -> class index
  std::vector<std::uint32_t> rank_of_;  // server -> rank within its class
  std::vector<std::int32_t> group_of_;  // server -> pool slot; kNoGroup = not a candidate
  std::vector<double> multiplier_;
  /// Servers whose multiplier is not 1.0, in no particular order, and each
  /// server's position in it (-1 = absent) for O(1) swap-remove.
  std::vector<ServerId> nonneutral_;
  std::vector<std::int32_t> nonneutral_pos_;
  /// Servers changed since the last flush (each once).
  std::vector<ServerId> dirty_;
  std::vector<std::uint8_t> is_dirty_;

  /// Bumped whenever any class's group pool grows — the sole event that can
  /// add a candidate a cached walk does not know about.
  std::uint64_t pool_generation_ = 0;
  /// A handful of demand-keyed slots with round-robin eviction: the task
  /// demands in flight per wakeup come from a small palette (the trace
  /// model's grid), so this stays effectively fully associative.
  static constexpr std::size_t kBatchSlots = 8;
  std::vector<BatchCache> batch_;
  std::size_t batch_clock_ = 0;  ///< next slot to evict

  Counters counters_;
};

}  // namespace dollymp
