#include "dollymp/cluster/placement_index.h"

#include <algorithm>
#include <bit>
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
  nonneutral_pos_.assign(n, -1);
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
  cls.groups.push_back(std::move(group));
  cls.lookup.emplace(key, gid);
  // A new pool slot is the one event that can add a candidate the batched
  // walks have not captured; everything else only churns member sets.
  ++pool_generation_;
  return gid;
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
  }
  ++counters_.batch_rebuilds;
  slot->demand = demand;
  slot->generation = pool_generation_;
  slot->valid = true;
  slot->entries.clear();
  // Capture every pool group — active or drained — that fits: fit and score
  // depend only on the slot's immutable used vector, so a group draining
  // and refilling later is still answered by this walk.
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ResourceClass& cls = classes_[c];
    if (!demand.fits_within(cls.capacity)) continue;
    for (std::size_t g = 0; g < cls.groups.size(); ++g) {
      const Group& group = cls.groups[g];
      if (!group_fits(group.used, demand, cls.capacity)) continue;
      slot->entries.push_back({static_cast<std::int32_t>(c), static_cast<std::int32_t>(g),
                               demand.dot(group_free(cls.capacity, group.used))});
    }
  }
  return *slot;
}

void PlacementIndex::regroup(std::size_t i) {
  const Server& server = cluster_->server(i);
  ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
  std::int32_t& gid = group_of_[i];
  if (gid != kNoGroup) {
    Group& group = cls.groups[static_cast<std::size_t>(gid)];
    if (server.placeable() && group.used == server.used()) return;
    // A drained group keeps its pool slot and bitset words: churn revisits
    // the same used vectors, so steady-state maintenance never allocates.
    group.members.erase(rank_of_[i]);
    gid = kNoGroup;
  }
  if (!server.placeable()) return;
  gid = group_for(cls, server.used());
  cls.groups[static_cast<std::size_t>(gid)].members.insert(rank_of_[i]);
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
  if (weight < 0.0) {
    throw std::invalid_argument("PlacementIndex: negative multiplier for server " +
                                std::to_string(id));
  }
  const auto i = static_cast<std::size_t>(id);
  std::int32_t& pos = nonneutral_pos_[i];
  if (weight != 1.0 && pos < 0) {
    pos = static_cast<std::int32_t>(nonneutral_.size());
    nonneutral_.push_back(id);
  } else if (weight == 1.0 && pos >= 0) {
    const ServerId last = nonneutral_.back();
    nonneutral_[static_cast<std::size_t>(pos)] = last;
    nonneutral_pos_[static_cast<std::size_t>(last)] = pos;
    nonneutral_.pop_back();
    pos = -1;
  }
  multiplier_[i] = weight;
}

double PlacementIndex::multiplier(ServerId id) const {
  return multiplier_[static_cast<std::size_t>(id)];
}

ServerId PlacementIndex::best_fit(const Resources& demand) {
  ++counters_.queries;
  flush();
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  // Replay the cached walk: drained groups drop out via members.empty(),
  // so the candidate set is exactly the active fitting groups and the
  // precomputed scores are the linear scan's expressions — same winner.
  for (const BatchEntry& e : batched_walk(demand).entries) {
    const ResourceClass& cls = classes_[static_cast<std::size_t>(e.cls)];
    const Group& group = cls.groups[static_cast<std::size_t>(e.gid)];
    if (group.members.empty()) continue;
    ++counters_.servers_scanned;
    const ServerId id = cls.ids[group.members.lowest()];
    if (beats(e.score, id, best_score, best)) {
      best_score = e.score;
      best = id;
    }
  }
  return best;
}

ServerId PlacementIndex::first_fit(const Resources& demand) {
  ++counters_.queries;
  flush();
  ServerId best = kInvalidServer;
  for (const BatchEntry& e : batched_walk(demand).entries) {
    const ResourceClass& cls = classes_[static_cast<std::size_t>(e.cls)];
    const Group& group = cls.groups[static_cast<std::size_t>(e.gid)];
    if (group.members.empty()) continue;
    ++counters_.servers_scanned;
    const ServerId id = cls.ids[group.members.lowest()];
    if (best == kInvalidServer || id < best) best = id;
  }
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
  //   (ii)  every up server whose multiplier is not 1.0 and whose group
  //         fits, at base x multiplier;
  //   (iii) every fitting replica of boost_block, at base x multiplier x
  //         1.25.
  // Every fitting server's true score is matched by a candidate (its own
  // from (ii) or (iii), or its group's (i) representative, which has the
  // same score and a lower-or-equal id), and no candidate scores above its
  // own server's true score (base and multipliers are non-negative, so the
  // boost only raises a score).  Under `beats` the best candidate is
  // therefore the linear scan's winner.
  for (const BatchEntry& e : batched_walk(demand).entries) {
    const ResourceClass& cls = classes_[static_cast<std::size_t>(e.cls)];
    const Group& group = cls.groups[static_cast<std::size_t>(e.gid)];
    std::uint32_t rank = group.members.lowest();
    while (rank != kNoRank && multiplier_[static_cast<std::size_t>(cls.ids[rank])] != 1.0) {
      rank = group.members.next(rank + 1);
    }
    if (rank == kNoRank) continue;
    ++counters_.servers_scanned;
    consider(cls.ids[rank], e.score);
  }
  for (const ServerId id : nonneutral_) {
    ++counters_.servers_scanned;
    const auto i = static_cast<std::size_t>(id);
    const std::int32_t gid = group_of_[i];
    if (gid == kNoGroup) continue;  // not placeable
    const ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
    const Group& group = cls.groups[static_cast<std::size_t>(gid)];
    if (!group_fits(group.used, demand, cls.capacity)) continue;
    consider(id, demand.dot(group_free(cls.capacity, group.used)) * multiplier_[i]);
  }
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
