#include "dollymp/cluster/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dollymp {
namespace {

/// Servers are views into a ServerTable since the struct-of-arrays
/// overhaul; a single-row cluster is the smallest way to stand one up.
Cluster one_server(ServerSpec spec) {
  Cluster cluster;
  cluster.add_server(std::move(spec));
  return cluster;
}

TEST(Server, AllocateRelease) {
  Cluster c = one_server(ServerSpec{{8, 16}, 1.0, 0, "test"});
  Server& s = c.server(0);
  EXPECT_TRUE(s.allocate({4, 8}));
  EXPECT_EQ(s.used(), Resources(4, 8));
  EXPECT_EQ(s.free(), Resources(4, 8));
  EXPECT_TRUE(s.allocate({4, 8}));
  EXPECT_FALSE(s.allocate({0.1, 0.0}));  // full
  s.release({4, 8});
  EXPECT_EQ(s.free(), Resources(4, 8));
}

TEST(Server, RejectsNegativeDemand) {
  Cluster c = one_server(ServerSpec{{8, 16}, 1.0, 0, ""});
  Server& s = c.server(0);
  EXPECT_THROW(s.allocate({-1, 0}), std::invalid_argument);
  EXPECT_THROW(s.release({0, -1}), std::invalid_argument);
}

TEST(Server, AllocFailureLeavesStateUnchanged) {
  Cluster c = one_server(ServerSpec{{4, 4}, 1.0, 0, ""});
  Server& s = c.server(0);
  EXPECT_TRUE(s.allocate({3, 3}));
  EXPECT_FALSE(s.allocate({2, 0}));
  EXPECT_EQ(s.used(), Resources(3, 3));
}

TEST(Server, ReleaseClampsFloatNoise) {
  Cluster c = one_server(ServerSpec{{1, 1}, 1.0, 0, ""});
  Server& s = c.server(0);
  ASSERT_TRUE(s.allocate({0.3, 0.3}));
  s.release({0.3, 0.3});
  EXPECT_TRUE(s.free().fits_within({1, 1}));
  EXPECT_TRUE(s.used().non_negative());
}

TEST(Server, CopyCounters) {
  Cluster c = one_server(ServerSpec{{8, 8}, 1.0, 0, ""});
  Server& s = c.server(0);
  s.note_copy_started();
  s.note_copy_started();
  EXPECT_EQ(s.running_copies(), 2);
  s.note_copy_finished();
  EXPECT_EQ(s.running_copies(), 1);
  s.reset();
  EXPECT_EQ(s.running_copies(), 0);
  EXPECT_TRUE(s.used().is_zero());
}

TEST(Cluster, TotalsFromGroups) {
  const Cluster c({{ServerSpec{{8, 16}, 1.0, 0, "a"}, 2},
                   {ServerSpec{{16, 32}, 1.5, 1, "b"}, 1}});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.total_capacity(), Resources(32, 64));
  EXPECT_EQ(c.rack_count(), 2);
}

TEST(Cluster, FreeUsedUtilization) {
  Cluster c = Cluster::uniform(2, {10, 10});
  EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
  ASSERT_TRUE(c.server(0).allocate({5, 2}));
  EXPECT_EQ(c.total_used(), Resources(5, 2));
  EXPECT_EQ(c.total_free(), Resources(15, 18));
  EXPECT_DOUBLE_EQ(c.utilization(), 0.25);  // cpu 5/20 dominates mem 2/20
  c.reset_allocations();
  EXPECT_DOUBLE_EQ(c.utilization(), 0.0);
}

TEST(Cluster, Paper30Inventory) {
  const Cluster c = Cluster::paper30();
  // Section 6.1: 30 heterogeneous nodes, 328 cores, two racks.
  EXPECT_EQ(c.size(), 30u);
  EXPECT_DOUBLE_EQ(c.total_capacity().cpu(), 328.0);
  EXPECT_EQ(c.rack_count(), 2);
  // 2 powerful nodes with 24 cores / 48 GB.
  int powerful = 0;
  for (const auto& s : c.servers()) {
    if (s.capacity().cpu() == 24.0) {
      ++powerful;
      EXPECT_DOUBLE_EQ(s.capacity().mem(), 48.0);
      EXPECT_GT(s.base_speed(), 1.0);
    }
  }
  EXPECT_EQ(powerful, 2);
}

TEST(Cluster, GoogleLikeInventory) {
  const Cluster c = Cluster::google_like(100);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_GT(c.rack_count(), 1);
  // Heterogeneous: at least two distinct capacities.
  bool saw_small = false;
  bool saw_big = false;
  for (const auto& s : c.servers()) {
    saw_small |= s.capacity().cpu() == 8.0;
    saw_big |= s.capacity().cpu() == 32.0;
  }
  EXPECT_TRUE(saw_small);
  EXPECT_TRUE(saw_big);
}

TEST(Cluster, SingleServer) {
  const Cluster c = Cluster::single({1.0, 1.0});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.total_capacity(), Resources(1, 1));
}

TEST(Cluster, ServerIdsAreIndices) {
  const Cluster c = Cluster::uniform(5, {1, 1});
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.server(i).id(), static_cast<ServerId>(i));
  }
}

/// Same size, racks and per-server capacity, speed and rack.
void expect_same_table(const Cluster& a, const Cluster& b, const std::string& spec) {
  ASSERT_EQ(a.size(), b.size()) << spec;
  EXPECT_EQ(a.rack_count(), b.rack_count()) << spec;
  EXPECT_EQ(a.total_capacity(), b.total_capacity()) << spec;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.server(i).capacity(), b.server(i).capacity()) << spec << " server " << i;
    EXPECT_EQ(a.server(i).rack(), b.server(i).rack()) << spec << " server " << i;
    EXPECT_EQ(a.server(i).base_speed(), b.server(i).base_speed()) << spec << " server " << i;
  }
}

TEST(ClusterSpec, EveryFormBuildsItsNamedInventory) {
  const std::vector<std::pair<std::string, Cluster>> cases = {
      {"paper30", Cluster::paper30()},
      {"google", Cluster::google_like(100)},
      {"google:300", Cluster::google_like(300)},
      {"google-trace", Cluster::google_trace(30'000)},
      {"google-trace:99", Cluster::google_trace(99)},
      {"gpu", Cluster::gpu_pods(64)},
      {"gpu:16", Cluster::gpu_pods(16)},
      {"uniform:41:8:16.5", Cluster::uniform(41, {8, 16.5})},
  };
  for (const auto& [spec, named] : cases) {
    expect_same_table(Cluster::from_spec(spec), named, spec);
  }
}

TEST(ClusterSpec, MalformedSpecsThrowQuotingTheBadText) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"google:abc", "'abc'"},       {"google:-5", "'-5'"},
      {"google:0", "'0'"},           {"uniform:3:x:4", "'x'"},
      {"gpu:16x", "'16x'"},          {"google-trace:", "'' is not a number"},
      {"nope", "'nope'"},            {"", "'' is not a cluster spec"},
      {"paper30:5", "'paper30:5'"},  {"uniform:3:4", "'uniform:3:4'"},
      {"google:1:2", "'google:1:2'"}, {"google-trace:99999999999999999999",
                                       "'99999999999999999999'"},
  };
  for (const auto& [spec, quoted] : cases) {
    try {
      (void)Cluster::from_spec(spec);
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      // The message starts with the bad text, so a tool can prefix its flag.
      EXPECT_EQ(what.find(quoted), 0u) << spec << ": " << what;
    }
  }
}

}  // namespace
}  // namespace dollymp
