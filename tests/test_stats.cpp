#include "dollymp/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dollymp {
namespace {

TEST(RunningStats, Empty) {
  const RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(Cdf, FractionAtMost) {
  const Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(100.0), 1.0);
}

TEST(Cdf, Quantile) {
  const Cdf cdf({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.21), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 30.0);
}

TEST(Cdf, QuantileOnEmptyThrows) {
  const Cdf cdf;
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.0);
}

TEST(Cdf, IncrementalAdd) {
  Cdf cdf;
  cdf.add(3.0);
  cdf.add(1.0);
  cdf.add(2.0);
  EXPECT_EQ(cdf.count(), 3u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
  // Adding after sorting re-sorts correctly.
  cdf.add(0.5);
  EXPECT_DOUBLE_EQ(cdf.min(), 0.5);
}

TEST(Cdf, CurveIsMonotone) {
  Cdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(static_cast<double>(i));
  const auto curve = cdf.curve(10);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 100.0);
}

TEST(Cdf, SortedSamples) {
  const Cdf cdf({3.0, 1.0, 2.0});
  const auto& sorted = cdf.sorted_samples();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(QuantileOf, Convenience) {
  EXPECT_DOUBLE_EQ(quantile_of({5.0, 1.0, 3.0}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of({5.0}, 0.99), 5.0);
}

}  // namespace
}  // namespace dollymp
