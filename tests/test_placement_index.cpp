// Invariant tests for the incremental free-capacity placement index.
//
// Strategy: drive a heterogeneous cluster through a long randomized
// sequence of place / release / fail / repair / quarantine / reweight
// events, reporting each to the index through on_server_changed exactly as
// the simulator does, and after EVERY mutation check all query kinds
// against brute-force linear references over the live cluster state —
// candidate sets, best-fit winners (including the lowest-id tie-break),
// first-fit and weight-aware picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/rng.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/runtime_state.h"
#include "placement_oracle.h"

namespace dollymp {
namespace {

using test_support::brute_force_candidates;
using test_support::weighted_reference;

// Demands on the trace model's grid (integral CPU, 0.5 GB memory) so
// allocate/release round-trips are bitwise lossless.
const std::vector<Resources> kPalette = {
    {1, 2}, {1, 0.5}, {2, 8}, {4, 16}, {6, 12}, {8, 24}, {12, 48}};

struct LiveCopy {
  ServerId server;
  Resources demand;
};

class IndexFuzzHarness {
 public:
  /// With `scatter`, half the placements go to a uniformly random server
  /// instead of the best-fit winner — the way locality-replica placement
  /// lands — so group members spread over the whole id range.
  IndexFuzzHarness(Cluster cluster, std::uint64_t seed, bool scatter = false)
      : cluster_(std::move(cluster)),
        locality_({}, cluster_),
        index_(cluster_),
        rng_(seed),
        scatter_(scatter),
        multipliers_(cluster_.size(), 1.0) {}

  void check_all_queries() {
    // The index applies pending changes at the next query, so each query
    // kind answers from its own copy of the index as the last mutation
    // left it and must apply them itself.  The first demand
    // rotates from check to check.
    const std::size_t start = checks_++ % kPalette.size();
    for (std::size_t kind = 0; kind < kQueryKinds; ++kind) {
      PlacementIndex pending = index_;
      for (std::size_t k = 0; k < kPalette.size(); ++k) {
        check_query(pending, kind, kPalette[(start + k) % kPalette.size()]);
      }
    }
  }

  void random_op() {
    const auto roll = rng_() % 100;
    if (roll < 40) {
      place_one();
    } else if (roll < 65) {
      release_one();
    } else if (roll < 75) {
      fail_one();
    } else if (roll < 85) {
      repair_one();
    } else if (roll < 93) {
      quarantine_one();
    } else {
      reweight_one();
    }
    if (rng_.chance(0.2)) block_ = locality_.place_block(rng_);
  }

  /// Place a copy on a random server, then fail that server before any
  /// query has seen the allocation: its pending regroup must be dropped.
  void place_then_fail() {
    const ServerId sid = place_on_random_server();
    if (sid != kInvalidServer) fail(sid);
  }

  /// Place a copy on a random server, fail it, repair it and place on it
  /// again, all before any query: the server stays dirty through every
  /// change, and the one regroup at the next query must see them all.
  void place_fail_repair() {
    const ServerId sid = place_on_random_server();
    if (sid == kInvalidServer) return;
    fail(sid);
    repair(sid);
    (void)place_on(sid, kPalette[rng_() % kPalette.size()]);
  }

  /// Quarantine an up server that holds a copy, then release it: while
  /// quarantined it must drop out of every query, and on release it must
  /// come back in the group of its allocation.
  void quarantine_up_server(bool query_between) {
    const ServerId sid = place_on_random_server();
    if (sid == kInvalidServer) return;
    quarantine(sid, true);
    if (query_between) check_all_queries();
    quarantine(sid, false);
  }

  /// Crash and quarantine a server in either order, then repair it while
  /// the quarantine still holds: it must stay out of every query until the
  /// quarantine clears too.  (quarantine_one's random toggles also release
  /// servers that are still down.)
  void quarantine_down_server(bool query_between) {
    const ServerId sid = place_on_random_server();
    if (sid == kInvalidServer) return;
    const bool quarantine_first = rng_.chance(0.5);
    if (quarantine_first) quarantine(sid, true);
    fail(sid);
    if (!quarantine_first) quarantine(sid, true);
    if (query_between) check_all_queries();
    repair(sid);  // repaired while quarantined: still no candidate
    if (query_between) check_all_queries();
    (void)place_on(sid, kPalette[0]);  // refused: the server is quarantined
    quarantine(sid, false);
  }

  /// Drain the group of a random live copy's server — release every copy
  /// on every server of that class in that allocation state — query, then
  /// place the same copies back so the group refills, and query again.  A
  /// drained group left on its class's active list, or a refilled group
  /// missing from it, shows up as a wrong answer in one of the two checks.
  void drain_and_refill_group() {
    if (live_.empty()) return;
    const Server& pick = cluster_.server(
        static_cast<std::size_t>(live_[rng_() % live_.size()].server));
    const Resources capacity = pick.capacity();
    const Resources used = pick.used();
    std::vector<LiveCopy> drained;
    for (std::size_t i = live_.size(); i-- > 0;) {
      Server& server = cluster_.server(static_cast<std::size_t>(live_[i].server));
      if (!(server.capacity() == capacity) || !(server.used() == used)) continue;
      drained.push_back(live_[i]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    for (const LiveCopy& copy : drained) {
      cluster_.server(static_cast<std::size_t>(copy.server)).release(copy.demand);
      index_.on_server_changed(copy.server);
    }
    check_all_queries();
    for (auto it = drained.rbegin(); it != drained.rend(); ++it) {
      (void)place_on(it->server, it->demand);
    }
    ++drains_;
  }

  /// Give two servers of one class in one allocation state one-ulp-apart
  /// learned weights, the larger on the higher id: whenever their two
  /// products round to one value, a weighted query that reads only the
  /// heap top answers the higher id where the linear scan answers the
  /// lower.
  void reweight_tie_pair() {
    const std::size_t n = cluster_.size();
    const auto a = static_cast<std::size_t>(rng_() % n);
    const Server& first = cluster_.server(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const Server& second = cluster_.server(b);
      if (!(second.capacity() == first.capacity()) || !(second.used() == first.used())) {
        continue;
      }
      const double low = rng_.uniform(1.0, 2.0);
      const double high = std::nextafter(low, 4.0);
      multipliers_[a] = low;
      multipliers_[b] = high;
      index_.set_multiplier(static_cast<ServerId>(a), low);
      index_.set_multiplier(static_cast<ServerId>(b), high);
      return;
    }
  }

  [[nodiscard]] std::size_t live_copies() const { return live_.size(); }
  /// Weighted checks whose winner is a learned server tied on score by a
  /// fitting server of its group with a strictly larger multiplier.
  [[nodiscard]] std::size_t learned_ties() const { return learned_ties_; }
  [[nodiscard]] std::size_t drains() const { return drains_; }

 private:
  static constexpr std::size_t kQueryKinds = 5;

  void check_query(PlacementIndex& index, std::size_t kind, const Resources& demand) {
    switch (kind) {
      case 0:
        EXPECT_EQ(index.fitting_candidates(demand), brute_force_candidates(cluster_, demand));
        break;
      case 1:
        EXPECT_EQ(index.best_fit(demand), best_fit_server(cluster_, demand));
        break;
      case 2:
        EXPECT_EQ(index.first_fit(demand), first_fit_server(cluster_, demand));
        break;
      case 3:
        EXPECT_EQ(index.weighted_best_fit(demand, &block_),
                  weighted_reference(cluster_, demand, multipliers_, &block_));
        break;
      default: {
        const ServerId expected = weighted_reference(cluster_, demand, multipliers_, nullptr);
        EXPECT_EQ(index.weighted_best_fit(demand, nullptr), expected);
        if (expected != kInvalidServer && tied_by_larger_multiplier(expected, demand)) {
          ++learned_ties_;
        }
        break;
      }
    }
  }

  /// Whether a fitting server of `winner`'s group (same class, same used
  /// vector) has a larger multiplier but the same base x multiplier.
  [[nodiscard]] bool tied_by_larger_multiplier(ServerId winner, const Resources& demand) const {
    const Server& w = cluster_.server(static_cast<std::size_t>(winner));
    const double mw = multipliers_[static_cast<std::size_t>(winner)];
    if (mw == 1.0) return false;
    const double base = demand.dot(w.free());
    for (const auto& other : cluster_.servers()) {
      const double mo = multipliers_[static_cast<std::size_t>(other.id())];
      if (mo > mw && mo != 1.0 && other.can_fit(demand) &&
          other.capacity() == w.capacity() && other.used() == w.used() &&
          base * mo == base * mw) {
        return true;
      }
    }
    return false;
  }

  /// Allocate `demand` on `sid` if it fits; returns whether it did.
  bool place_on(ServerId sid, const Resources& demand) {
    Server& server = cluster_.server(static_cast<std::size_t>(sid));
    if (!server.can_fit(demand)) return false;
    EXPECT_TRUE(server.allocate(demand));
    index_.on_server_changed(sid);
    live_.push_back({sid, demand});
    return true;
  }

  ServerId place_on_random_server() {
    const Resources& demand = kPalette[rng_() % kPalette.size()];
    const auto sid = static_cast<ServerId>(rng_() % cluster_.size());
    return place_on(sid, demand) ? sid : kInvalidServer;
  }

  void place_one() {
    if (scatter_ && rng_.chance(0.5)) {
      (void)place_on_random_server();
      return;
    }
    const Resources& demand = kPalette[rng_() % kPalette.size()];
    const ServerId sid = index_.best_fit(demand);
    if (sid == kInvalidServer) return;
    ASSERT_TRUE(place_on(sid, demand));
  }

  void release_one() {
    if (live_.empty()) return;
    const std::size_t pick = rng_() % live_.size();
    const LiveCopy copy = live_[pick];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
    cluster_.server(static_cast<std::size_t>(copy.server)).release(copy.demand);
    index_.on_server_changed(copy.server);
  }

  void fail_one() { fail(static_cast<ServerId>(rng_() % cluster_.size())); }

  void fail(ServerId sid) {
    auto& server = cluster_.server(static_cast<std::size_t>(sid));
    if (server.is_down()) return;
    // Simulator order: mark down and report it, then kill the victim's
    // copies (their releases land while the server is down).
    server.set_down(true);
    index_.on_server_changed(sid);
    for (std::size_t i = live_.size(); i-- > 0;) {
      if (live_[i].server != sid) continue;
      server.release(live_[i].demand);
      index_.on_server_changed(sid);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void repair_one() { repair(static_cast<ServerId>(rng_() % cluster_.size())); }

  void repair(ServerId sid) {
    auto& server = cluster_.server(static_cast<std::size_t>(sid));
    if (!server.is_down()) return;
    server.set_down(false);
    index_.on_server_changed(sid);
  }

  /// Toggle a random server's quarantine, whether it is up or down.
  void quarantine_one() {
    const auto sid = static_cast<ServerId>(rng_() % cluster_.size());
    quarantine(sid, !cluster_.server(static_cast<std::size_t>(sid)).is_quarantined());
  }

  void quarantine(ServerId sid, bool on) {
    cluster_.server(static_cast<std::size_t>(sid)).set_quarantined(on);
    index_.on_server_changed(sid);
  }

  void reweight_one() {
    const std::size_t n = cluster_.size();
    // A quarter of the reweights hit the lowest ids, which represent their
    // groups in the weighted walk: a learned weight there makes a group's
    // lowest member non-neutral.
    const std::size_t range = rng_.chance(0.25) ? std::min<std::size_t>(n, 8) : n;
    const auto sid = static_cast<ServerId>(rng_() % range);
    double weight = rng_.uniform(1.0 / 16.0, 2.0);
    const auto kind = rng_() % 4;
    if (kind == 0) {
      weight = 1.0;  // back to neutral: the server leaves its learned heap
    } else if (kind == 1) {
      // One ulp from another server's weight, so base x multiplier products
      // of two servers can tie and fall to the lowest-id tie-break.
      const double other = multipliers_[rng_() % n];
      const bool down = rng_.chance(0.5);
      weight = std::nextafter(other, down ? 0.0 : 4.0);
    }
    multipliers_[static_cast<std::size_t>(sid)] = weight;
    index_.set_multiplier(sid, weight);
  }

  Cluster cluster_;
  LocalityModel locality_;
  PlacementIndex index_;
  Rng rng_;
  bool scatter_;
  std::vector<double> multipliers_;
  std::vector<LiveCopy> live_;
  BlockPlacement block_;
  std::size_t checks_ = 0;
  std::size_t learned_ties_ = 0;
  std::size_t drains_ = 0;
};

TEST(PlacementIndex, RandomizedChurnMatchesBruteForce) {
  IndexFuzzHarness harness(Cluster::google_like(80), 17);
  harness.check_all_queries();  // pristine cluster
  for (int op = 0; op < 600; ++op) {
    harness.random_op();
    harness.check_all_queries();
  }
  EXPECT_GT(harness.live_copies(), 0u);
}

TEST(PlacementIndex, RandomizedChurnHeterogeneousTraceInventory) {
  IndexFuzzHarness harness(Cluster::google_trace(60), 23);
  for (int op = 0; op < 400; ++op) {
    harness.random_op();
    harness.check_all_queries();
  }
}

// A class far larger than one summary word's reach (64 x 64 = 4,096
// ranks): scattered placements leave groups whose members sit leaf and
// summary words apart, so erasing a group's lowest member and enumerating
// its members both walk the bitset's second level.
TEST(PlacementIndex, LargeClassScatteredChurnMatchesBruteForce) {
  IndexFuzzHarness harness(Cluster::uniform(10000, {16, 64}), 29, /*scatter=*/true);
  for (int op = 0; op < 200; ++op) {
    harness.random_op();
    harness.check_all_queries();
  }
  // Servers that fail, or fail and recover, while an allocation change on
  // them is still pending.
  for (int round = 0; round < 20; ++round) {
    harness.place_then_fail();
    harness.check_all_queries();
    harness.place_fail_repair();
    harness.check_all_queries();
  }
  EXPECT_GT(harness.live_copies(), 0u);
}

// Quarantine on and off for up servers and for down servers, and repair
// while quarantined, each with and without queries between the steps (so
// the changes reach the index one at a time or all in one regroup).
TEST(PlacementIndex, QuarantineAndCrashInterleavingsMatchBruteForce) {
  for (const bool query_between : {false, true}) {
    IndexFuzzHarness harness(Cluster::google_trace(120), query_between ? 41 : 43,
                             /*scatter=*/true);
    for (int round = 0; round < 40; ++round) {
      harness.random_op();
      harness.check_all_queries();
      harness.quarantine_up_server(query_between);
      harness.check_all_queries();
      harness.quarantine_down_server(query_between);
      harness.check_all_queries();
    }
    EXPECT_GT(harness.live_copies(), 0u);
  }
}

// Groups drain and refill between queries while pairs of group members take
// learned weights one ulp apart, the larger on the higher id.  The run must
// meet at least one exact product tie that only the heap's tie walk
// resolves to the linear scan's lowest id.
TEST(PlacementIndex, DrainRefillAndLearnedTieChurnMatchesBruteForce) {
  for (const std::uint64_t seed : {53u, 59u}) {
    IndexFuzzHarness harness(Cluster::google_like(80), seed);
    for (int round = 0; round < 150; ++round) {
      harness.random_op();
      harness.reweight_tie_pair();
      harness.check_all_queries();
      harness.drain_and_refill_group();
      harness.check_all_queries();
    }
    EXPECT_GT(harness.drains(), 0u);
    EXPECT_GT(harness.learned_ties(), 0u) << "seed " << seed;
  }
}

// Two members of one group whose distinct multipliers give one product on
// their shared base, the larger multiplier on the higher id: the heap top
// is the higher id, the linear scan's winner the lower.
TEST(PlacementIndex, WeightedTieOnSharedBasePicksLowestId) {
  Cluster cluster = Cluster::uniform(6, {4, 4});
  PlacementIndex index(cluster);
  const Resources demand{1, 2};
  const double base = demand.dot(cluster.server(0).free());
  double low = 1.5;
  while (base * low != base * std::nextafter(low, 4.0)) low = std::nextafter(low, 4.0);
  const double high = std::nextafter(low, 4.0);
  std::vector<double> multipliers(cluster.size(), 1.0);
  multipliers[2] = low;
  multipliers[4] = high;
  multipliers[5] = high;
  for (ServerId id = 0; id < 6; ++id) {
    index.set_multiplier(id, multipliers[static_cast<std::size_t>(id)]);
  }
  EXPECT_EQ(weighted_reference(cluster, demand, multipliers, nullptr), 2);
  EXPECT_EQ(index.weighted_best_fit(demand, nullptr), 2);
  // Neutral again: the tie now sits between the two equal heap nodes.
  index.set_multiplier(2, 1.0);
  multipliers[2] = 1.0;
  EXPECT_EQ(index.weighted_best_fit(demand, nullptr),
            weighted_reference(cluster, demand, multipliers, nullptr));
  EXPECT_EQ(index.weighted_best_fit(demand, nullptr), 4);
}

TEST(PlacementIndex, QuarantinedServerLeavesEveryQueryUntilReleased) {
  Cluster cluster = Cluster::uniform(4, {4, 4});
  PlacementIndex index(cluster);
  cluster.server(0).set_quarantined(true);
  index.on_server_changed(0);
  EXPECT_EQ(index.first_fit({1, 1}), 1);
  // Crash and repair while quarantined: still out.
  cluster.server(0).set_down(true);
  index.on_server_changed(0);
  cluster.server(0).set_down(false);
  index.on_server_changed(0);
  EXPECT_EQ(index.first_fit({1, 1}), 1);
  EXPECT_EQ(index.fitting_candidates({1, 1}), (std::vector<ServerId>{1, 2, 3}));
  cluster.server(0).set_quarantined(false);
  index.on_server_changed(0);
  EXPECT_EQ(index.first_fit({1, 1}), 0);
}

// Every multiplier learned and the boost block's replicas overlaid: the
// weighted walk's group representatives drop out and the winner comes from
// the individually scored servers, through every placement until the
// cluster fills.
TEST(PlacementIndex, WeightedBestFitAllLearnedWeightsWithBoostedReplicas) {
  Cluster cluster = Cluster::google_trace(500);
  PlacementIndex index(cluster);
  std::vector<double> multipliers(cluster.size());
  for (ServerId id = 0; id < static_cast<ServerId>(cluster.size()); ++id) {
    const double w = 0.5 + 0.001 * static_cast<double>((id * 37) % 997);
    multipliers[static_cast<std::size_t>(id)] = w;
    index.set_multiplier(id, w);
  }
  BlockPlacement block;
  block.replicas = {3, 250, 499};
  const std::vector<Resources> demands = {{1.0, 1.0}, {2.0, 4.0}, {0.5, 8.0}, {16.0, 1.0}};
  int placed = 0;
  for (int round = 0; round < 400; ++round) {
    const Resources& demand = demands[static_cast<std::size_t>(round) % demands.size()];
    const BlockPlacement* const boosts[] = {nullptr, &block};
    for (const BlockPlacement* boost : boosts) {
      EXPECT_EQ(index.weighted_best_fit(demand, boost),
                weighted_reference(cluster, demand, multipliers, boost))
          << "round " << round << " boost=" << (boost != nullptr);
    }
    const ServerId sid = index.weighted_best_fit(demand, &block);
    if (sid == kInvalidServer) continue;
    ASSERT_TRUE(cluster.server(static_cast<std::size_t>(sid)).allocate(demand));
    index.on_server_changed(sid);
    ++placed;
  }
  EXPECT_GT(placed, 100);
}

TEST(PlacementIndex, NegativeMultiplierIsRejected) {
  const Cluster cluster = Cluster::uniform(4, {4, 4});
  PlacementIndex index(cluster);
  EXPECT_THROW(index.set_multiplier(1, -0.5), std::invalid_argument);
  EXPECT_EQ(index.multiplier(1), 1.0);
}

// The learned-member heap needs a total order (no NaN) and the products a
// finite weight (0 x inf is NaN).
TEST(PlacementIndex, NonFiniteMultiplierIsRejected) {
  const Cluster cluster = Cluster::uniform(4, {4, 4});
  PlacementIndex index(cluster);
  EXPECT_THROW(index.set_multiplier(1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(index.set_multiplier(1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(index.multiplier(1), 1.0);
  EXPECT_EQ(index.weighted_best_fit({1, 1}, nullptr), 0);
}

TEST(PlacementIndex, EmptyClusterAnswersInvalid) {
  Cluster cluster;
  PlacementIndex index(cluster);
  EXPECT_EQ(index.best_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.first_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.weighted_best_fit({1, 1}, nullptr), kInvalidServer);
  EXPECT_TRUE(index.fitting_candidates({1, 1}).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(PlacementIndex, AllServersFailedAnswersInvalid) {
  Cluster cluster = Cluster::uniform(8, {4, 4});
  PlacementIndex index(cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.server(i).set_down(true);
    index.on_server_changed(static_cast<ServerId>(i));
  }
  EXPECT_EQ(index.best_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.first_fit({1, 1}), kInvalidServer);
  EXPECT_TRUE(index.fitting_candidates({1, 1}).empty());
  // Repair one: it must come back exactly as the linear scan sees it.
  cluster.server(3).set_down(false);
  index.on_server_changed(3);
  EXPECT_EQ(index.best_fit({1, 1}), best_fit_server(cluster, {1, 1}));
  EXPECT_EQ(index.first_fit({1, 1}), 3);
}

TEST(PlacementIndex, CountersTrackQueriesAndUpdates) {
  Cluster cluster = Cluster::uniform(4, {4, 4});
  PlacementIndex index(cluster);
  EXPECT_EQ(index.counters().queries, 0u);
  (void)index.best_fit({1, 1});
  (void)index.first_fit({1, 1});
  EXPECT_EQ(index.counters().queries, 2u);
  ASSERT_TRUE(cluster.server(0).allocate({1, 1}));
  index.on_server_changed(0);
  EXPECT_EQ(index.counters().updates, 1u);
}

}  // namespace
}  // namespace dollymp
