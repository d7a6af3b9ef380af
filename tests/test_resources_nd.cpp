// Differential harness for the N-dimensional Resources generalization.
//
// The historical type carried exactly two fields (cpu cores, memory GB);
// the N-D rewrite must reproduce that arithmetic bit for bit when only
// dimensions 0 and 1 are populated — that is the load-bearing premise
// behind keeping every one of the 36 layout-golden stream hashes valid.
// LegacyResources below is a faithful transcription of the old two-field
// implementation (same expressions, same evaluation order); the fuzz suite
// drives both implementations through every operation with shared random
// inputs and compares results BITWISE (memcpy to uint64_t, so -0.0 vs 0.0
// or any ULP drift fails, not just epsilon differences).
//
// The property suite then exercises the genuinely new territory — vectors
// with 3 and 4 populated dimensions — where no legacy oracle exists:
// fits_within monotonicity, dot symmetry/linearity, clamp idempotence,
// dominant-share bounds.
//
// Finally, the equality-policy suite pins the operator== contract the
// header documents: exact comparison (near-equal vectors are distinct),
// which PlacementIndex depends on for its used-vector group keys, while
// fits_within stays slack-tolerant.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/resources.h"

namespace dollymp {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t out;
  static_assert(sizeof(out) == sizeof(v));
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b)) << (a) << " vs " << (b)

// ---------------------------------------------------------------------------
// The pre-refactor two-field implementation, transcribed verbatim: same
// expressions, same slack constant, same zero-capacity guards and the same
// evaluation order (cpu first, then mem) as the old resources.{h,cpp}.
// ---------------------------------------------------------------------------

struct LegacyResources {
  double cpu = 0.0;
  double mem = 0.0;

  [[nodiscard]] bool fits_within(const LegacyResources& capacity) const {
    constexpr double kSlack = 1e-9;
    return cpu <= capacity.cpu + kSlack && mem <= capacity.mem + kSlack;
  }
  [[nodiscard]] bool is_zero() const { return cpu == 0.0 && mem == 0.0; }
  [[nodiscard]] bool non_negative() const { return cpu >= 0.0 && mem >= 0.0; }
  [[nodiscard]] double dot(const LegacyResources& o) const {
    return cpu * o.cpu + mem * o.mem;
  }
  [[nodiscard]] double dominant_share(const LegacyResources& total) const {
    double share = 0.0;
    if (total.cpu > 0.0) share = std::max(share, cpu / total.cpu);
    if (total.mem > 0.0) share = std::max(share, mem / total.mem);
    return share;
  }
  [[nodiscard]] LegacyResources min(const LegacyResources& o) const {
    return {cpu < o.cpu ? cpu : o.cpu, mem < o.mem ? mem : o.mem};
  }
  [[nodiscard]] LegacyResources max(const LegacyResources& o) const {
    return {cpu > o.cpu ? cpu : o.cpu, mem > o.mem ? mem : o.mem};
  }
  [[nodiscard]] LegacyResources clamped() const {
    return {cpu < 0.0 ? 0.0 : cpu, mem < 0.0 ? 0.0 : mem};
  }
  LegacyResources& operator+=(const LegacyResources& o) {
    cpu += o.cpu;
    mem += o.mem;
    return *this;
  }
  LegacyResources& operator-=(const LegacyResources& o) {
    cpu -= o.cpu;
    mem -= o.mem;
    return *this;
  }
  LegacyResources& operator*=(double s) {
    cpu *= s;
    mem *= s;
    return *this;
  }
  friend bool operator==(const LegacyResources& a, const LegacyResources& b) {
    return a.cpu == b.cpu && a.mem == b.mem;
  }
};

double legacy_normalized_sum(const LegacyResources& r, const LegacyResources& total) {
  double sum = 0.0;
  if (total.cpu > 0.0) sum += r.cpu / total.cpu;
  if (total.mem > 0.0) sum += r.mem / total.mem;
  return sum;
}

double legacy_min_free_fraction(const LegacyResources& free, const LegacyResources& total) {
  double fraction = 0.0;
  bool any = false;
  if (total.cpu > 0.0) {
    fraction = free.cpu / total.cpu;
    any = true;
  }
  if (total.mem > 0.0) {
    const double f = free.mem / total.mem;
    fraction = any ? std::min(fraction, f) : f;
    any = true;
  }
  return any ? fraction : 0.0;
}

// ---------------------------------------------------------------------------
// Shared fuzz input generation.  The value palette deliberately mixes the
// trace model's grid (integral cores, quarter-GB steps — the values the
// simulator actually circulates) with raw uniform doubles and exact zeros.
// The domain is non-negative on purpose: that is the type's documented
// convention, and the bit-identity argument (x + 0.0 preserves x's bits,
// products against 0.0 give +0.0) genuinely requires it — a negative
// component times 0.0 yields -0.0 and legacy's two-term dot can return
// -0.0 where the accumulate-from-+0.0 loop returns +0.0.  Negative
// components still occur in the simulator, but only transiently from
// subtraction (release under float noise), which is how the clamp
// differential below produces them.
// ---------------------------------------------------------------------------

class ValueGen {
 public:
  explicit ValueGen(std::uint64_t seed) : rng_(seed) {}

  double value() {
    switch (pick_(rng_)) {
      case 0: return 0.0;
      case 1: return static_cast<double>(small_(rng_));               // integers
      case 2: return static_cast<double>(small_(rng_)) * 0.25;        // grid steps
      case 3: return uniform_(rng_) * 256.0;                          // raw doubles
      default: return static_cast<double>(small_(rng_)) * 0.125;      // fine grid
    }
  }
  /// Strictly positive (for capacities/totals).
  double positive() { return static_cast<double>(small_(rng_)) * 0.5 + 0.5; }
  double scalar() { return uniform_(rng_) * 4.0; }

  std::pair<Resources, LegacyResources> paired() {
    const double c = value();
    const double m = value();
    return {Resources{c, m}, LegacyResources{c, m}};
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> pick_{0, 4};
  std::uniform_int_distribution<int> small_{0, 64};
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

void expect_biteq(const Resources& nd, const LegacyResources& legacy) {
  EXPECT_BITEQ(nd.cpu(), legacy.cpu);
  EXPECT_BITEQ(nd.mem(), legacy.mem);
  // The bit-identity contract's other half: unused dimensions stay exactly
  // +0.0 through every operation, or downstream sums/compares would shift.
  EXPECT_EQ(bits(nd[2]), bits(0.0));
  EXPECT_EQ(bits(nd[3]), bits(0.0));
}

// ---------------------------------------------------------------------------
// N=2 differential fuzz: every operation, bitwise.
// ---------------------------------------------------------------------------

TEST(ResourcesNdDifferential, ArithmeticMatchesLegacyBitwise) {
  ValueGen gen(20260809);
  for (int round = 0; round < 4000; ++round) {
    auto [a, la] = gen.paired();
    auto [b, lb] = gen.paired();
    const double s = gen.scalar();

    expect_biteq(a + b, LegacyResources{la} += lb);
    expect_biteq(a - b, LegacyResources{la} -= lb);
    expect_biteq(a * s, LegacyResources{la} *= s);
    expect_biteq(s * a, LegacyResources{la} *= s);
    expect_biteq(a.min(b), la.min(lb));
    expect_biteq(a.max(b), la.max(lb));
    // Negative components enter the real system only through subtraction
    // (release under float noise); clamp them back the way server code does.
    const Resources diff = a - b;
    const LegacyResources ldiff{la.cpu - lb.cpu, la.mem - lb.mem};
    expect_biteq(diff.clamped(), ldiff.clamped());

    Resources acc = a;
    LegacyResources lacc = la;
    acc += b;
    acc -= b;
    lacc += lb;
    lacc -= lb;
    expect_biteq(acc, lacc);  // the alloc/release round trip
  }
}

TEST(ResourcesNdDifferential, PredicatesAndScoresMatchLegacy) {
  ValueGen gen(77);
  for (int round = 0; round < 4000; ++round) {
    auto [a, la] = gen.paired();
    auto [b, lb] = gen.paired();

    EXPECT_EQ(a.fits_within(b), la.fits_within(lb));
    EXPECT_EQ(a.is_zero(), la.is_zero());
    EXPECT_EQ(a.non_negative(), la.non_negative());
    EXPECT_EQ(a == b, la == lb);
    EXPECT_BITEQ(a.dot(b), la.dot(lb));
    EXPECT_BITEQ(a.dominant_share(b), la.dominant_share(lb));
    EXPECT_BITEQ(normalized_sum(a, b), legacy_normalized_sum(la, lb));
    EXPECT_BITEQ(min_free_fraction(a, b), legacy_min_free_fraction(la, lb));
  }
}

TEST(ResourcesNdDifferential, ExactFillRoundTripNeverRejects) {
  // The slack rationale: after allocate/release churn with grid demands, a
  // demand that exactly fills the server must still fit — in both
  // implementations, with the same verdict.
  ValueGen gen(5);
  for (int round = 0; round < 2000; ++round) {
    const double c = gen.positive() * 8.0;
    const double m = gen.positive() * 8.0;
    Resources cap{c, m};
    LegacyResources lcap{c, m};
    Resources used;
    LegacyResources lused;
    for (int step = 0; step < 6; ++step) {
      const double dc = gen.positive();
      const double dm = gen.positive();
      used += Resources{dc, dm};
      used -= Resources{dc, dm};
      lused += LegacyResources{dc, dm};
      lused -= LegacyResources{dc, dm};
    }
    const Resources fill = cap - used;
    const LegacyResources lfill{lcap.cpu - lused.cpu, lcap.mem - lused.mem};
    EXPECT_EQ((used + fill).fits_within(cap),
              (LegacyResources{lused} += lfill).fits_within(lcap));
    EXPECT_TRUE((used + fill).fits_within(cap));
  }
}

// ---------------------------------------------------------------------------
// N=3..kMaxDims property tests — no legacy oracle exists here.
// ---------------------------------------------------------------------------

void expect_biteq_nd(const Resources& a, const Resources& b) {
  for (std::size_t d = 0; d < Resources::kMaxDims; ++d) {
    EXPECT_EQ(bits(a[d]), bits(b[d])) << "dim " << d;
  }
}

Resources random_nd(ValueGen& gen, std::size_t dims) {
  Resources r;
  for (std::size_t d = 0; d < dims; ++d) r[d] = std::abs(gen.value());
  return r;
}

TEST(ResourcesNdProperties, FitsWithinIsMonotone) {
  ValueGen gen(900);
  for (std::size_t dims = 3; dims <= Resources::kMaxDims; ++dims) {
    for (int round = 0; round < 1000; ++round) {
      const Resources a = random_nd(gen, dims);
      const Resources slack = random_nd(gen, dims);
      // a fits in itself, in anything componentwise larger, and growing the
      // demand can only flip fit one way.
      EXPECT_TRUE(a.fits_within(a));
      EXPECT_TRUE(a.fits_within(a + slack));
      const Resources cap = random_nd(gen, dims);
      if ((a + slack).fits_within(cap)) {
        EXPECT_TRUE(a.fits_within(cap));
      }
    }
  }
}

TEST(ResourcesNdProperties, DotIsSymmetricAndLinear) {
  ValueGen gen(901);
  for (std::size_t dims = 3; dims <= Resources::kMaxDims; ++dims) {
    for (int round = 0; round < 1000; ++round) {
      const Resources a = random_nd(gen, dims);
      const Resources b = random_nd(gen, dims);
      const Resources c = random_nd(gen, dims);
      EXPECT_BITEQ(a.dot(b), b.dot(a));  // products commute bitwise
      EXPECT_NEAR(a.dot(b + c), a.dot(b) + a.dot(c), 1e-9 * (1.0 + a.dot(b + c)));
      EXPECT_GE(a.dot(a), 0.0);
    }
  }
}

TEST(ResourcesNdProperties, ClampIsIdempotentAndMinMaxBracket) {
  ValueGen gen(902);
  for (std::size_t dims = 3; dims <= Resources::kMaxDims; ++dims) {
    for (int round = 0; round < 1000; ++round) {
      Resources a = random_nd(gen, dims);
      Resources b = random_nd(gen, dims);
      a[dims - 1] = -a[dims - 1];  // force a clampable component
      const Resources once = a.clamped();
      expect_biteq_nd(once, once.clamped());
      EXPECT_TRUE(once.non_negative());
      EXPECT_TRUE(a.min(b).fits_within(a));
      EXPECT_TRUE(a.min(b).fits_within(b));
      EXPECT_TRUE(a.fits_within(a.max(b)));
      EXPECT_TRUE(b.fits_within(a.max(b)));
    }
  }
}

TEST(ResourcesNdProperties, DominantShareBoundsAndGpuAxis) {
  ValueGen gen(903);
  for (int round = 0; round < 1000; ++round) {
    Resources total;
    for (std::size_t d = 0; d < Resources::kMaxDims; ++d) total[d] = gen.positive() * 16.0;
    const Resources demand = random_nd(gen, Resources::kMaxDims);
    const double share = demand.dominant_share(total);
    for (std::size_t d = 0; d < Resources::kMaxDims; ++d) {
      EXPECT_GE(share + 1e-12, demand[d] / total[d]);
    }
    if (demand.fits_within(total)) {
      EXPECT_LE(share, 1.0 + 1e-9);
    }
  }
  // A GPU-only demand is dominated by the GPU axis.
  const Resources total{64.0, 256.0, 8.0};
  const Resources gpu_task{1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(gpu_task.dominant_share(total), 0.5);
}

// ---------------------------------------------------------------------------
// operator== policy: exact, by design.
// ---------------------------------------------------------------------------

TEST(ResourcesNdEqualityPolicy, NearEqualVectorsAreDistinctButBothFit) {
  const Resources a{4.0, 16.0};
  Resources b = a;
  b[0] = 4.0 + 1e-12;
  // Exact equality separates them ...
  EXPECT_FALSE(a == b);
  // ... while the tolerant question — does this demand fit that capacity —
  // treats the 1e-12 noise as invisible in both directions.
  EXPECT_TRUE(a.fits_within(b));
  EXPECT_TRUE(b.fits_within(a));
  // And exactness is symmetric/reflexive on the nose.
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(b == a);
}

TEST(ResourcesNdEqualityPolicy, PlacementIndexGroupsKeyOnExactUsedVectors) {
  // Two identical servers whose used vectors differ by one ULP-scale write
  // must land in distinct groups (exact keys), and BOTH must remain visible
  // to placement queries — near-equal split groups are harmless by design,
  // approximate keys would be order-dependent.
  Cluster cluster = Cluster::uniform(2, {16.0, 64.0});
  PlacementIndex index(cluster);

  ASSERT_TRUE(cluster.server(0).allocate({4.0, 8.0}));
  index.on_server_changed(0);
  ASSERT_TRUE(cluster.server(1).allocate({4.0 + 1e-12, 8.0}));
  index.on_server_changed(1);
  ASSERT_FALSE(cluster.server(0).used() == cluster.server(1).used());

  // Both servers can host this demand; the candidate enumeration must see
  // both despite them sitting in different used-vector groups.
  const auto candidates = index.fitting_candidates({8.0, 16.0});
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0], 0);
  EXPECT_EQ(candidates[1], 1);

  // And the winner matches the brute-force linear scan's tie-break (lowest
  // id at equal score; the 1e-12 perturbation makes server 1's score a
  // hair different, so exact behavior is pinned by comparing to the scan).
  const Resources demand{2.0, 4.0};
  ServerId expected = -1;
  double best = 0.0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const Server& s = cluster.server(i);
    if (!s.can_fit(demand)) continue;
    const double score = demand.dot(s.free());
    if (expected < 0 || score > best) {
      expected = static_cast<ServerId>(i);
      best = score;
    }
  }
  EXPECT_EQ(index.best_fit(demand), expected);
}

}  // namespace
}  // namespace dollymp
