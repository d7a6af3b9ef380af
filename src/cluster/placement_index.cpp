#include "dollymp/cluster/placement_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace dollymp {

namespace {

/// The shared winner comparator: reproduces an ascending-id linear scan with
/// a strict `score > best` test, i.e. max score with lowest-id tie break.
inline bool beats(double score, ServerId id, double best_score, ServerId best) {
  return score > best_score || (score == best_score && id < best);
}

/// Server::can_fit for an up member, evaluated once per group: members share
/// a value-identical used vector, so the expression answers for all of them.
inline bool group_fits(const Resources& used, const Resources& demand,
                       const Resources& capacity) {
  return (used + demand).fits_within(capacity);
}

/// Server::free(), evaluated once per group — the same float expression on
/// value-identical inputs yields the member servers' exact free vector.
inline Resources group_free(const Resources& capacity, const Resources& used) {
  return (capacity - used).clamped();
}

constexpr std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << (i & 63); }

/// BatchCache score of a pool slot whose group does not fit the demand.
/// Real scores are dot products of non-negative vectors, never -inf.
constexpr double kNoFit = -std::numeric_limits<double>::infinity();

}  // namespace

// ---- RankSet ----------------------------------------------------------------

void PlacementIndex::RankSet::reset(std::size_t ranks) {
  leaves_ = (ranks + 63) / 64;
  words_.assign(leaves_ + (leaves_ + 63) / 64, 0);
  count_ = 0;
  lowest_ = kNoRank;
}

void PlacementIndex::RankSet::insert(std::uint32_t rank) {
  const std::size_t w = rank >> 6;
  if (words_[w] == 0) words_[leaves_ + (w >> 6)] |= bit(w);
  words_[w] |= bit(rank);
  ++count_;
  lowest_ = std::min(lowest_, rank);
}

void PlacementIndex::RankSet::erase(std::uint32_t rank) {
  const std::size_t w = rank >> 6;
  words_[w] &= ~bit(rank);
  if (words_[w] == 0) words_[leaves_ + (w >> 6)] &= ~bit(w);
  --count_;
  if (rank == lowest_) lowest_ = count_ == 0 ? kNoRank : next(rank + 1);
}

std::uint32_t PlacementIndex::RankSet::next(std::uint32_t from) const {
  std::size_t w = from >> 6;
  if (w >= leaves_) return kNoRank;
  const std::uint64_t here = words_[w] & (~std::uint64_t{0} << (from & 63));
  if (here != 0) return static_cast<std::uint32_t>((w << 6) | std::countr_zero(here));
  // The first non-empty leaf word after w, found through the summary.
  ++w;
  std::size_t s = leaves_ + (w >> 6);
  if (s >= words_.size()) return kNoRank;
  std::uint64_t nonempty = words_[s] & (~std::uint64_t{0} << (w & 63));
  while (nonempty == 0) {
    if (++s == words_.size()) return kNoRank;
    nonempty = words_[s];
  }
  w = ((s - leaves_) << 6) | static_cast<std::size_t>(std::countr_zero(nonempty));
  return static_cast<std::uint32_t>((w << 6) | std::countr_zero(words_[w]));
}

// ---- PlacementIndex ---------------------------------------------------------

PlacementIndex::PlacementIndex(const Cluster& cluster)
    : cluster_(&cluster), batch_(kBatchSlots) {
  const std::size_t n = cluster.size();
  class_of_.assign(n, -1);
  rank_of_.assign(n, 0);
  group_of_.assign(n, kNoGroup);
  multiplier_.assign(n, 1.0);
  heap_pos_.assign(n, -1);
  is_dirty_.assign(n, 0);
  // Each server is listed at most once, so the dirty list never outgrows
  // the fleet: reserving it here keeps maintenance free of reallocation.
  dirty_.reserve(n);

  for (const auto& server : cluster.servers()) {
    const auto id = static_cast<std::size_t>(server.id());
    std::int32_t cls = -1;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].capacity == server.capacity()) {
        cls = static_cast<std::int32_t>(c);
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<std::int32_t>(classes_.size());
      ResourceClass rc;
      rc.capacity = server.capacity();
      classes_.push_back(std::move(rc));
    }
    class_of_[id] = cls;
    // Servers arrive in ascending id order, so ranks ascend with ids.
    ResourceClass& rc = classes_[static_cast<std::size_t>(cls)];
    rank_of_[id] = static_cast<std::uint32_t>(rc.ids.size());
    rc.ids.push_back(server.id());
  }
  // Group only now that every class's rank range — the size of its groups'
  // bitsets — is known.
  for (std::size_t i = 0; i < n; ++i) regroup(i);
}

std::int32_t PlacementIndex::group_for(ResourceClass& cls, const Resources& used) {
  // Exact per-dimension key (see the equality-policy note in resources.h):
  // lexicographic over all dimensions, which reproduces the historical
  // (cpu, mem) pair ordering when the extra dimensions are all zero.
  const std::array<double, Resources::kMaxDims>& key = used.dims;
  const auto it = cls.lookup.find(key);
  if (it != cls.lookup.end()) return it->second;
  const auto gid = static_cast<std::int32_t>(cls.groups.size());
  Group group;
  group.used = used;
  group.members.reset(cls.ids.size());
  // A new pool slot is the one event that can add a candidate the batched
  // walks have not captured; everything else only churns member sets.
  group.row = static_cast<std::uint32_t>(pool_generation_++);
  row_group_.emplace_back(static_cast<std::int32_t>(&cls - classes_.data()), gid);
  cls.groups.push_back(std::move(group));
  // Room for every slot to be active at once, so the active list never
  // reallocates while groups drain and refill (the pool's capacity grows
  // geometrically, so neither does this).
  cls.active.reserve(cls.groups.capacity());
  cls.lookup.emplace(key, gid);
  return gid;
}

void PlacementIndex::join(ResourceClass& cls, std::int32_t gid, std::uint32_t rank) {
  Group& group = cls.groups[static_cast<std::size_t>(gid)];
  if (group.members.empty()) {
    group.active_pos = static_cast<std::int32_t>(cls.active.size());
    cls.active.push_back(gid);
  }
  group.members.insert(rank);
}

void PlacementIndex::leave(ResourceClass& cls, std::int32_t gid, std::uint32_t rank) {
  Group& group = cls.groups[static_cast<std::size_t>(gid)];
  group.members.erase(rank);
  if (!group.members.empty()) return;
  const std::int32_t last = cls.active.back();
  cls.active[static_cast<std::size_t>(group.active_pos)] = last;
  cls.groups[static_cast<std::size_t>(last)].active_pos = group.active_pos;
  cls.active.pop_back();
  group.active_pos = -1;
}

// ---- learned-member heaps ---------------------------------------------------

bool PlacementIndex::heap_above(ServerId a, ServerId b) const {
  const double ma = multiplier_[static_cast<std::size_t>(a)];
  const double mb = multiplier_[static_cast<std::size_t>(b)];
  return ma > mb || (ma == mb && a < b);
}

void PlacementIndex::heap_place(Group& group, std::size_t pos, ServerId id) {
  group.learned[pos] = id;
  heap_pos_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(pos);
}

void PlacementIndex::heap_fix(Group& group, std::size_t pos) {
  std::vector<ServerId>& heap = group.learned;
  const ServerId id = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!heap_above(id, heap[parent])) break;
    heap_place(group, pos, heap[parent]);
    pos = parent;
  }
  for (std::size_t child = 2 * pos + 1; child < heap.size(); child = 2 * pos + 1) {
    if (child + 1 < heap.size() && heap_above(heap[child + 1], heap[child])) ++child;
    if (!heap_above(heap[child], id)) break;
    heap_place(group, pos, heap[child]);
    pos = child;
  }
  heap_place(group, pos, id);
}

void PlacementIndex::heap_insert(Group& group, ServerId id) {
  group.learned.push_back(id);
  heap_fix(group, group.learned.size() - 1);
}

void PlacementIndex::heap_erase(Group& group, ServerId id) {
  std::int32_t& pos = heap_pos_[static_cast<std::size_t>(id)];
  const auto at = static_cast<std::size_t>(pos);
  pos = -1;
  const ServerId last = group.learned.back();
  group.learned.pop_back();
  if (at == group.learned.size()) return;  // erased the last node
  heap_place(group, at, last);
  heap_fix(group, at);
}

ServerId PlacementIndex::heap_tie_winner(const Group& group, double base, double& product) {
  const std::vector<ServerId>& heap = group.learned;
  product = base * multiplier_[static_cast<std::size_t>(heap[0])];
  ServerId winner = heap[0];
  // base x m is monotone in m but not strictly (two multipliers can round
  // to one product), so the top need not hold the lowest id at its score.
  // Every node tying the top lies in a subtree at the root: a node's
  // multiplier is never above its parent's, nor therefore its product.
  tie_stack_.clear();
  tie_stack_.push_back(0);
  while (!tie_stack_.empty()) {
    const std::size_t pos = tie_stack_.back();
    tie_stack_.pop_back();
    for (std::size_t child = 2 * pos + 1; child <= 2 * pos + 2 && child < heap.size();
         ++child) {
      ++counters_.servers_scanned;
      const ServerId id = heap[child];
      if (base * multiplier_[static_cast<std::size_t>(id)] != product) continue;
      winner = std::min(winner, id);
      tie_stack_.push_back(static_cast<std::uint32_t>(child));
    }
  }
  return winner;
}

const PlacementIndex::BatchCache& PlacementIndex::batched_walk(const Resources& demand) {
  BatchCache* slot = nullptr;
  for (auto& cache : batch_) {
    if (cache.valid && cache.demand == demand) {
      slot = &cache;
      break;
    }
  }
  if (slot != nullptr && slot->generation == pool_generation_) {
    ++counters_.batch_hits;
    return *slot;
  }
  if (slot == nullptr) {
    slot = &batch_[batch_clock_];
    batch_clock_ = (batch_clock_ + 1) % batch_.size();
    slot->demand = demand;
    slot->generation = 0;
    slot->valid = true;
  }
  ++counters_.batch_rebuilds;
  // Score every pool group — active or drained — the row does not cover
  // yet: fit and score depend only on the slot's immutable used vector, so
  // a group draining and refilling later is still answered by this walk,
  // and rows number the slots in creation order, so a stale row is missing
  // exactly the slots created since it was last brought up to date.
  slot->scores.resize(static_cast<std::size_t>(pool_generation_));
  for (auto row = static_cast<std::size_t>(slot->generation); row < slot->scores.size(); ++row) {
    const auto [c, g] = row_group_[row];
    const ResourceClass& cls = classes_[static_cast<std::size_t>(c)];
    const Group& group = cls.groups[static_cast<std::size_t>(g)];
    slot->scores[row] = demand.fits_within(cls.capacity) &&
                                group_fits(group.used, demand, cls.capacity)
                            ? demand.dot(group_free(cls.capacity, group.used))
                            : kNoFit;
  }
  slot->generation = pool_generation_;
  return *slot;
}

template <typename Visit>
void PlacementIndex::visit_fitting_groups(const Resources& demand, Visit&& visit) {
  const BatchCache& walk = batched_walk(demand);
  for (const ResourceClass& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (const std::int32_t gid : cls.active) {
      const Group& group = cls.groups[static_cast<std::size_t>(gid)];
      const double score = walk.scores[group.row];
      if (score == kNoFit) continue;
      visit(cls, group, score);
    }
  }
}

void PlacementIndex::regroup(std::size_t i) {
  const Server& server = cluster_->server(i);
  ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
  std::int32_t& gid = group_of_[i];
  const auto id = static_cast<ServerId>(i);
  if (gid != kNoGroup) {
    Group& group = cls.groups[static_cast<std::size_t>(gid)];
    if (server.placeable() && group.used == server.used()) return;
    // A drained group keeps its pool slot, bitset words and heap capacity:
    // churn revisits the same used vectors, so steady-state maintenance
    // never allocates.
    if (learned_count_ != 0 && heap_pos_[i] >= 0) heap_erase(group, id);
    leave(cls, gid, rank_of_[i]);
    gid = kNoGroup;
  }
  if (!server.placeable()) return;
  gid = group_for(cls, server.used());
  join(cls, gid, rank_of_[i]);
  if (learned_count_ != 0 && multiplier_[i] != 1.0) {
    heap_insert(cls.groups[static_cast<std::size_t>(gid)], id);
  }
}

void PlacementIndex::on_server_changed(ServerId id) {
  ++counters_.updates;
  const auto i = static_cast<std::size_t>(id);
  if (is_dirty_[i] != 0) return;
  is_dirty_[i] = 1;
  dirty_.push_back(id);
}

void PlacementIndex::flush() {
  for (const ServerId id : dirty_) {
    const auto i = static_cast<std::size_t>(id);
    is_dirty_[i] = 0;
    regroup(i);
  }
  dirty_.clear();
}

void PlacementIndex::set_multiplier(ServerId id, double weight) {
  if (!(weight >= 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("PlacementIndex: multiplier for server " +
                                std::to_string(id) + " must be finite and non-negative");
  }
  const auto i = static_cast<std::size_t>(id);
  if ((multiplier_[i] != 1.0) != (weight != 1.0)) {
    if (weight != 1.0) {
      ++learned_count_;
    } else {
      --learned_count_;
    }
  }
  multiplier_[i] = weight;
  // The heap to update is the one of the group the server was last flushed
  // into, even if it is dirty now: the next regroup moves it from there.
  const std::int32_t gid = group_of_[i];
  if (gid == kNoGroup) return;  // regroup inserts it when it rejoins a group
  Group& group = classes_[static_cast<std::size_t>(class_of_[i])]
                     .groups[static_cast<std::size_t>(gid)];
  const std::int32_t pos = heap_pos_[i];
  if (pos < 0) {
    if (weight != 1.0) heap_insert(group, id);
  } else if (weight == 1.0) {
    heap_erase(group, id);
  } else {
    heap_fix(group, static_cast<std::size_t>(pos));
  }
}

double PlacementIndex::multiplier(ServerId id) const {
  return multiplier_[static_cast<std::size_t>(id)];
}

ServerId PlacementIndex::best_fit(const Resources& demand) {
  ++counters_.queries;
  flush();
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  // The candidate set is exactly the active fitting groups, and the cached
  // scores are the linear scan's expressions — same winner.
  visit_fitting_groups(demand, [&](const ResourceClass& cls, const Group& group,
                                   double score) {
    ++counters_.servers_scanned;
    const ServerId id = cls.ids[group.members.lowest()];
    if (beats(score, id, best_score, best)) {
      best_score = score;
      best = id;
    }
  });
  return best;
}

ServerId PlacementIndex::first_fit(const Resources& demand) {
  ++counters_.queries;
  flush();
  ServerId best = kInvalidServer;
  visit_fitting_groups(demand, [&](const ResourceClass& cls, const Group& group,
                                   double /*score*/) {
    ++counters_.servers_scanned;
    const ServerId id = cls.ids[group.members.lowest()];
    if (best == kInvalidServer || id < best) best = id;
  });
  return best;
}

ServerId PlacementIndex::weighted_best_fit(const Resources& demand,
                                           const BlockPlacement* boost_block) {
  ++counters_.queries;
  flush();
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  const auto consider = [&](ServerId id, double score) {
    if (beats(score, id, best_score, best)) {
      best_score = score;
      best = id;
    }
  };
  // Three candidate sets, each scored with the linear scan's expressions:
  //   (i)   per active fitting group, its lowest-id member whose multiplier
  //         is exactly 1.0, at the group score (base x 1.0 == base);
  //   (ii)  per active fitting group with learned members, the lowest id
  //         among its heap nodes whose base x multiplier ties the top's, at
  //         that product;
  //   (iii) every fitting replica of boost_block, at base x multiplier x
  //         1.25.
  // Every fitting server's true score is matched by a candidate with the
  // same score and a lower-or-equal id, or beaten outright: a neutral
  // server by its group's (i) representative; a learned server s by (ii),
  // since the top's multiplier is at least s's, so its product is at least
  // s's, and when the two are equal s itself is in the tie set; a replica
  // by its own (iii) entry.  No candidate scores above its own server's
  // true score (base and multipliers are non-negative, so the boost only
  // raises a score).  Under `beats` the best candidate is therefore the
  // linear scan's winner.
  visit_fitting_groups(demand, [&](const ResourceClass& cls, const Group& group,
                                   double score) {
    if (group.learned.size() < group.members.size()) {
      std::uint32_t rank = group.members.lowest();
      while (multiplier_[static_cast<std::size_t>(cls.ids[rank])] != 1.0) {
        rank = group.members.next(rank + 1);
      }
      ++counters_.servers_scanned;
      consider(cls.ids[rank], score);
    }
    if (!group.learned.empty()) {
      ++counters_.servers_scanned;
      double product = 0.0;
      const ServerId id = heap_tie_winner(group, score, product);
      consider(id, product);
    }
  });
  if (boost_block != nullptr) {
    for (const ServerId replica : boost_block->replicas) {
      ++counters_.servers_scanned;
      const Server& server = cluster_->server(static_cast<std::size_t>(replica));
      if (!server.can_fit(demand)) continue;
      consider(replica, demand.dot(server.free()) *
                            multiplier_[static_cast<std::size_t>(replica)] * 1.25);
    }
  }
  return best;
}

std::vector<ServerId> PlacementIndex::fitting_candidates(const Resources& demand) {
  flush();
  std::vector<ServerId> out;
  for (const auto& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (const Group& group : cls.groups) {
      if (group.members.empty() || !group_fits(group.used, demand, cls.capacity)) continue;
      for (std::uint32_t rank = group.members.lowest(); rank != kNoRank;
           rank = group.members.next(rank + 1)) {
        out.push_back(cls.ids[rank]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dollymp
