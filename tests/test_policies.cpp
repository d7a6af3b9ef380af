// The policy registry (sched/policies.h): the one name -> scheduler map
// every tool, the bench harness and the service Session resolve through.
#include "dollymp/sched/policies.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dollymp/sched/dollymp.h"

namespace dollymp {
namespace {

/// The message make_named_policy throws, or "" when it builds.
std::string rejection(const std::string& name, std::optional<DollyMPConfig> dollymp = {}) {
  try {
    (void)make_named_policy(name, dollymp);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PolicyRegistry, EveryKnownNameBuildsAScheduler) {
  const auto& names = known_policy_names();
  EXPECT_EQ(names.size(), 17u);
  for (const std::string& name : names) {
    const auto scheduler = make_named_policy(name);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_FALSE(scheduler->name().empty()) << name;
    EXPECT_NE(named_policy_factory(name)(), nullptr) << name;
  }
}

TEST(PolicyRegistry, DollyMPNameCarriesItsBudgetAndOptions) {
  for (int k = 0; k <= 9; ++k) {
    const std::string name = "dollymp" + std::to_string(k);
    const auto plain = make_named_policy(name);
    const auto* dollymp = dynamic_cast<const DollyMPScheduler*>(plain.get());
    ASSERT_NE(dollymp, nullptr) << name;
    EXPECT_EQ(dollymp->config().clone_budget, k);
    EXPECT_FALSE(dollymp->config().straggler_aware);
    EXPECT_EQ(dollymp->name(), "dollymp^" + std::to_string(k));
  }
  DollyMPConfig options;
  options.clone_budget = 7;  // the name's K wins
  options.straggler_aware = true;
  options.resilience.enabled = true;
  options.smallest_first_clones = false;
  const SchedulerFactory factory = named_policy_factory("dollymp3", options);
  const auto built = factory();
  const auto* dollymp = dynamic_cast<const DollyMPScheduler*>(built.get());
  ASSERT_NE(dollymp, nullptr);
  EXPECT_EQ(dollymp->config().clone_budget, 3);
  EXPECT_TRUE(dollymp->config().straggler_aware);
  EXPECT_TRUE(dollymp->config().resilience.enabled);
  EXPECT_FALSE(dollymp->config().smallest_first_clones);
}

TEST(PolicyRegistry, UnknownNameListsTheKnownNames) {
  for (const std::string name : {"bogus", "", "dollymp", "Capacity", "dollymp2-naive"}) {
    const std::string what = rejection(name);
    EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
    for (const std::string& known : known_policy_names()) {
      EXPECT_NE(what.find(known), std::string::npos) << name << ": " << what;
    }
    EXPECT_THROW((void)named_policy_factory(name), std::invalid_argument) << name;
  }
}

TEST(PolicyRegistry, BadCloneBudgetIsQuoted) {
  for (const std::string budget : {"z", "10", "-1", "01", " 2"}) {
    const std::string what = rejection("dollymp" + budget);
    EXPECT_EQ(what.find("'" + budget + "'"), 0u) << what;
  }
}

TEST(PolicyRegistry, DollyMPOptionsWithABaselineThrow) {
  DollyMPConfig options;
  options.straggler_aware = true;
  for (const std::string name : {"capacity", "hopper", "drf", "tetris", "carbyne", "srpt", "svf"}) {
    const std::string what = rejection(name, options);
    EXPECT_NE(what.find("'" + name + "'"), std::string::npos) << what;
    EXPECT_THROW((void)named_policy_factory(name, DollyMPConfig{}), std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace dollymp
