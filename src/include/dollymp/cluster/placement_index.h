// Incremental free-capacity index over a Cluster: the one implementation of
// every placement query the simulator answers.
//
// A linear scan (best_fit_server(const Cluster&, ...) & friends, kept as
// test references) visits every server per copy placed, which makes a
// scheduler invocation O(placements x servers) — fine at the paper's
// 30-node inventory, hopeless at the 30K-server trace scale of Section 6.3.
// PlacementIndex maintains a two-level grouping that answers placement
// queries in time proportional to the number of *active distinct
// allocation states* (plus, for the weighted query, the learned servers
// that tie a group's best learned score), not the number of servers; no
// maintenance hook and no query does work that grows with the fleet:
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
//     revisiting the same used vectors — performs no heap allocation.  Each
//     class also lists its *active* pool slots (at least one member) in a
//     swap-remove vector, touched only when a group's member count moves
//     between 0 and 1; queries walk that list, never the drained pool.
//   * Each group keeps a binary max-heap of its members whose learned
//     multiplier is not 1.0, ordered by (multiplier descending, id
//     ascending), with every server's heap position.  The weighted query
//     reads only the heap top and the nodes whose score ties it.
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
#include <utility>
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
  /// Must be finite and not negative (the scorer's weights are reciprocals
  /// of clamped positive slowdown estimates); any other weight throws
  /// std::invalid_argument.  The learned-member heaps need the total order
  /// a NaN would break, and a finite weight keeps base x weight free of the
  /// 0 x inf NaN.  O(log group learned members).
  void set_multiplier(ServerId id, double weight);
  [[nodiscard]] double multiplier(ServerId id) const;

  // ----- queries (bit-identical to the linear scans) -------------------------
  //
  // Every query first applies the pending changes (see on_server_changed),
  // so queries are non-const.  best_fit, first_fit and weighted_best_fit
  // walk each fitting class's active groups and read each group's score
  // from a batched walk: a row per demand holding a score for every pool
  // slot, or a no-fit marker.  A Group's used vector — and therefore its
  // per-demand fit answer and score — is immutable for the lifetime of its
  // pool slot; only its members churn, so a row is computed once per
  // demand and, when the pool grows, extended by the new slots alone.  The
  // candidate set is the active fitting groups, scores are the identical
  // float expressions, and `beats` is enumeration-order independent —
  // bit-identical decisions, each pool slot scored once per cached demand
  // instead of once per task, and no query visits a drained group.

  /// Equivalent of best_fit_server(cluster, demand).
  [[nodiscard]] ServerId best_fit(const Resources& demand);

  /// Equivalent of first_fit_server(cluster, demand).
  [[nodiscard]] ServerId first_fit(const Resources& demand);

  /// Equivalent of DollyMP's straggler-aware pick: maximize
  /// demand.dot(free) * multiplier(id), boosted by 1.25 when the server
  /// holds a replica of `boost_block` (pass nullptr for no boost), ties to
  /// the lowest id.  Three candidate sets cover every server, per active
  /// fitting group: its lowest-id member with multiplier exactly 1.0 at the
  /// group score; the top of its learned-member heap at group score x
  /// multiplier, replaced by the lowest id among the heap nodes whose
  /// product ties the top's; and, fleet-wide, every fitting replica of
  /// `boost_block`, boosted.  A query costs O(active fitting groups +
  /// replicas + exact ties), plus the learned members a group's rank walk
  /// skips below its lowest neutral member.
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
    [[nodiscard]] std::uint32_t size() const { return count_; }
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
    /// Members whose multiplier is not 1.0: a binary max-heap under
    /// heap_above (capacity kept when drained).
    std::vector<ServerId> learned;
    /// This group's position in its class's active list; -1 when drained.
    std::int32_t active_pos = -1;
    /// Fleet-wide pool slot: the group's entry in a BatchCache's scores.
    std::uint32_t row = 0;
  };

  struct ResourceClass {
    Resources capacity;
    std::vector<ServerId> ids;  ///< rank -> server, ascending
    std::vector<Group> groups;  ///< pool; slots are never reclaimed
    /// Pool slots with at least one member, in no particular order.
    std::vector<std::int32_t> active;
    /// used -> pool slot.  Insert-only: churn revisits the same used
    /// vectors, so in steady state every lookup hits.
    std::map<std::array<double, Resources::kMaxDims>, std::int32_t> lookup;
  };

  /// Cached capacity-group walk for one exact demand: the scores of the
  /// first `generation` pool slots.  Group creation leaves it stale (a new
  /// group could fit) until the next query scores the new slots.
  struct BatchCache {
    Resources demand;
    std::uint64_t generation = 0;
    bool valid = false;
    /// Per pool slot (Group::row): demand.dot(group_free(capacity, used)),
    /// or kNoFit.  Capacity kept across rebuilds.
    std::vector<double> scores;
  };
  /// The cached walk for `demand`: rebuilt on a miss, and on a stale
  /// generation extended by the slots created since.
  [[nodiscard]] const BatchCache& batched_walk(const Resources& demand);
  /// visit(cls, group, score) for every active group of every class whose
  /// cached score for `demand` is not kNoFit, in no particular order.
  template <typename Visit>
  void visit_fitting_groups(const Resources& demand, Visit&& visit);

  /// regroup() every dirty server.
  void flush();
  /// Apply the candidacy rule to server `i`: a placeable server is a member
  /// of the group of its current used(), any other server of no group.
  void regroup(std::size_t i);
  /// Pool slot for `used`, creating the group on first sight.
  [[nodiscard]] std::int32_t group_for(ResourceClass& cls, const Resources& used);
  /// Member-set changes that keep the class's active list in step.
  static void join(ResourceClass& cls, std::int32_t gid, std::uint32_t rank);
  static void leave(ResourceClass& cls, std::int32_t gid, std::uint32_t rank);

  // Learned-member heap of a group.  Server a sits above b when its
  // multiplier is larger, or equal with a lower id: a strict total order,
  // because multipliers are never NaN.
  [[nodiscard]] bool heap_above(ServerId a, ServerId b) const;
  void heap_insert(Group& group, ServerId id);
  void heap_erase(Group& group, ServerId id);
  /// Restore the heap order around position `pos` after its key changed.
  void heap_fix(Group& group, std::size_t pos);
  void heap_place(Group& group, std::size_t pos, ServerId id);
  /// Lowest id among the heap nodes whose base x multiplier equals the
  /// top's; `product` receives that score.  The tie set is a subtree at the
  /// root (a child's product never exceeds its parent's), walked depth
  /// first over tie_stack_.
  [[nodiscard]] ServerId heap_tie_winner(const Group& group, double base, double& product);

  const Cluster* cluster_;
  std::vector<ResourceClass> classes_;
  std::vector<std::int32_t> class_of_;  // server -> class index
  std::vector<std::uint32_t> rank_of_;  // server -> rank within its class
  std::vector<std::int32_t> group_of_;  // server -> pool slot; kNoGroup = not a candidate
  std::vector<double> multiplier_;
  /// Position in the learned heap of group_of_ (the group the server was
  /// last flushed into, even while it is dirty); -1 = in no heap.
  std::vector<std::int32_t> heap_pos_;
  /// Servers whose multiplier is not 1.0.  While it is 0 — every run
  /// without straggler-aware placement — every heap is empty and regroup
  /// reads neither heap_pos_ nor multiplier_.
  std::size_t learned_count_ = 0;
  /// Servers changed since the last flush (each once).
  std::vector<ServerId> dirty_;
  std::vector<std::uint8_t> is_dirty_;
  /// Scratch stack of heap positions for heap_tie_winner.
  std::vector<std::uint32_t> tie_stack_;

  /// Pool slots created so far across every class: bumped whenever any
  /// class's pool grows — the sole event that can add a candidate a cached
  /// walk does not know about — and the next group's row.
  std::uint64_t pool_generation_ = 0;
  /// Row -> (class index, pool slot in that class), in creation order.
  std::vector<std::pair<std::int32_t, std::int32_t>> row_group_;
  /// A handful of demand-keyed slots with round-robin eviction: the task
  /// demands in flight per wakeup come from a small palette (the trace
  /// model's grid), so this stays effectively fully associative.
  static constexpr std::size_t kBatchSlots = 8;
  std::vector<BatchCache> batch_;
  std::size_t batch_clock_ = 0;  ///< next slot to evict

  Counters counters_;
};

}  // namespace dollymp
