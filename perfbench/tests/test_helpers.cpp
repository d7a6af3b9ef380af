// Tests for the benchmark's own statistics and span helpers.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // 100..1, unsorted
  EXPECT_DOUBLE_EQ(percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  std::vector<double> one{4.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 4.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 needs 1000 samples before ten lie beyond it.
  EXPECT_EQ(tail_samples(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_EQ(tail_samples(999, 0.99), 9u);
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_FALSE(percentile_supported(100, 0.99));
  // The median needs only 20.
  EXPECT_TRUE(percentile_supported(20, 0.50));
  EXPECT_FALSE(percentile_supported(19, 0.50));
  EXPECT_FALSE(percentile_supported(0, 0.50));
}

TEST(SelfTime, ParentMinusChildren) {
  // rep [0,100] > step [10,60] > schedule [20,50] > place [30,35], place [40,42]
  //              ckpt [70,80]
  const std::vector<Span> spans = {
      {Layer::kRep, -1, 0, 100},           {Layer::kSimStep, 0, 10, 60},
      {Layer::kSchedSchedule, 1, 20, 50},  {Layer::kPlace, 2, 30, 35},
      {Layer::kPlace, 2, 40, 42},          {Layer::kCkptSerialize, 0, 70, 80},
  };
  const LayerTotals t = layer_totals(spans);
  auto self = [&](Layer l) { return t.self_ns[static_cast<int>(l)]; };
  auto total = [&](Layer l) { return t.total_ns[static_cast<int>(l)]; };
  EXPECT_DOUBLE_EQ(self(Layer::kPlace), 7.0);
  EXPECT_EQ(t.count[static_cast<int>(Layer::kPlace)], 2);
  EXPECT_DOUBLE_EQ(self(Layer::kSchedSchedule), 30.0 - 7.0);
  EXPECT_DOUBLE_EQ(total(Layer::kSchedSchedule), 30.0);
  EXPECT_DOUBLE_EQ(self(Layer::kSimStep), 50.0 - 30.0);
  EXPECT_DOUBLE_EQ(self(Layer::kCkptSerialize), 10.0);
  EXPECT_DOUBLE_EQ(self(Layer::kRep), 100.0 - 50.0 - 10.0);
  // Self times over all layers add up to the root's wall time.
  double sum = 0.0;
  for (double s : t.self_ns) sum += s;
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

TEST(SelfTime, RepeatedLayerNestsInItself) {
  // A step span inside another step span: the outer one's self time
  // excludes the inner one, and both count toward the layer total.
  const std::vector<Span> spans = {
      {Layer::kSimStep, -1, 0, 10},
      {Layer::kSimStep, 0, 2, 6},
  };
  const LayerTotals t = layer_totals(spans);
  EXPECT_DOUBLE_EQ(t.self_ns[static_cast<int>(Layer::kSimStep)], 10.0);
  EXPECT_DOUBLE_EQ(t.total_ns[static_cast<int>(Layer::kSimStep)], 14.0);
}

TEST(Tracer, RecordsParentsFromOpenSpans) {
  Tracer tracer;
  {
    ScopedSpan rep(&tracer, Layer::kRep);
    {
      ScopedSpan sched(&tracer, Layer::kSchedSchedule);
      ScopedSpan place(&tracer, Layer::kPlace);
    }
    ScopedSpan notify(&tracer, Layer::kSchedNotify);
  }
  ScopedSpan untraced(nullptr, Layer::kPlace);  // no tracer: records nothing
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  for (const Span& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
  EXPECT_LE(spans[2].end_ns, spans[1].end_ns);
  EXPECT_LE(spans[1].end_ns, spans[3].start_ns);
}

}  // namespace
}  // namespace perfbench
