#include "dollymp/cluster/background_load.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/common/state_io.h"

namespace dollymp {
namespace {

TEST(BackgroundLoad, SlowdownWithinBounds) {
  BackgroundLoadConfig config;
  config.max_slowdown = 8.0;
  BackgroundLoadProcess proc(config, 10, 42);
  for (std::size_t s = 0; s < 10; ++s) {
    for (double t = 0.0; t < 5000.0; t += 37.0) {
      const double slow = proc.slowdown(s, t);
      ASSERT_GE(slow, 1.0);
      ASSERT_LE(slow, 8.0);
    }
  }
}

TEST(BackgroundLoad, DeterministicGivenSeed) {
  const BackgroundLoadConfig config;
  BackgroundLoadProcess a(config, 4, 7);
  BackgroundLoadProcess b(config, 4, 7);
  for (double t = 0.0; t < 2000.0; t += 11.0) {
    for (std::size_t s = 0; s < 4; ++s) {
      ASSERT_DOUBLE_EQ(a.slowdown(s, t), b.slowdown(s, t));
    }
  }
}

TEST(BackgroundLoad, DifferentSeedsDiffer) {
  const BackgroundLoadConfig config;
  BackgroundLoadProcess a(config, 4, 1);
  BackgroundLoadProcess b(config, 4, 2);
  int differing = 0;
  for (double t = 0.0; t < 5000.0; t += 53.0) {
    if (a.slowdown(0, t) != b.slowdown(0, t)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(BackgroundLoad, DisabledIsAlwaysOne) {
  BackgroundLoadConfig config;
  config.enabled = false;
  BackgroundLoadProcess proc(config, 3, 9);
  for (double t = 0.0; t < 1000.0; t += 10.0) {
    EXPECT_DOUBLE_EQ(proc.slowdown(1, t), 1.0);
  }
}

TEST(BackgroundLoad, ContentionActuallyHappens) {
  BackgroundLoadConfig config;
  config.contention_probability = 0.5;
  BackgroundLoadProcess proc(config, 8, 3);
  bool saw_contention = false;
  for (std::size_t s = 0; s < 8 && !saw_contention; ++s) {
    for (double t = 0.0; t < 10000.0; t += 13.0) {
      if (proc.slowdown(s, t) > 1.0) {
        saw_contention = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_contention);
}

TEST(BackgroundLoad, ResetReproduces) {
  const BackgroundLoadConfig config;
  BackgroundLoadProcess proc(config, 2, 5);
  std::vector<double> first;
  for (double t = 0.0; t < 1000.0; t += 17.0) first.push_back(proc.slowdown(0, t));
  proc.reset(5);
  std::size_t i = 0;
  for (double t = 0.0; t < 1000.0; t += 17.0) {
    ASSERT_DOUBLE_EQ(proc.slowdown(0, t), first[i++]);
  }
}

std::vector<std::uint8_t> snapshot_of(const BackgroundLoadProcess& proc) {
  StateWriter w;
  proc.save_state(w);
  return w.finish();
}

TEST(BackgroundLoad, DisabledProcessRoundTripsWithNoStates) {
  BackgroundLoadConfig config;
  config.enabled = false;
  const BackgroundLoadProcess saved(config, 1000, 9);
  const auto bytes = snapshot_of(saved);
  // Record size and a zero count: no per-server state at all.
  EXPECT_EQ(bytes.size(), kStateHeaderBytes + 4 + 8 + 8);
  BackgroundLoadProcess restored(config, 1000, 123);
  StateReader r(bytes);
  restored.load_state(r);
  EXPECT_NO_THROW(r.expect_done());
  EXPECT_DOUBLE_EQ(restored.slowdown(999, 50.0), 1.0);
}

TEST(BackgroundLoad, EnabledSnapshotContinuesTheExactSlowdownSequence) {
  BackgroundLoadConfig config;
  config.contention_probability = 0.5;
  BackgroundLoadProcess original(config, 6, 11);
  for (double t = 0.0; t < 500.0; t += 7.0) {
    for (std::size_t s = 0; s < 6; ++s) (void)original.slowdown(s, t);
  }
  const auto bytes = snapshot_of(original);

  // A fresh process from another seed: only the snapshot can make it agree.
  BackgroundLoadProcess restored(config, 6, 999);
  StateReader r(bytes);
  restored.load_state(r);
  int contended = 0;
  for (double t = 500.0; t < 5000.0; t += 7.0) {
    for (std::size_t s = 0; s < 6; ++s) {
      const double expected = original.slowdown(s, t);
      ASSERT_DOUBLE_EQ(restored.slowdown(s, t), expected) << "server " << s << " t " << t;
      if (expected > 1.0) ++contended;
    }
  }
  EXPECT_GT(contended, 0);  // the compared sequence is not all 1.0
}

void expect_count_mismatch(const BackgroundLoadProcess& saved,
                           BackgroundLoadProcess& target) {
  const auto bytes = snapshot_of(saved);
  StateReader r(bytes);
  try {
    target.load_state(r);
    FAIL() << "snapshot with a different server count loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("background-load server count mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackgroundLoad, EnabledSnapshotIntoDisabledProcessThrowsCountMismatch) {
  BackgroundLoadConfig off;
  off.enabled = false;
  const BackgroundLoadProcess enabled({}, 4, 1);
  BackgroundLoadProcess disabled(off, 4, 1);
  expect_count_mismatch(enabled, disabled);
}

TEST(BackgroundLoad, DisabledSnapshotIntoEnabledProcessThrowsCountMismatch) {
  BackgroundLoadConfig off;
  off.enabled = false;
  const BackgroundLoadProcess disabled(off, 4, 1);
  BackgroundLoadProcess enabled({}, 4, 1);
  expect_count_mismatch(disabled, enabled);
}

TEST(BackgroundLoad, RejectsBadConfig) {
  BackgroundLoadConfig bad;
  bad.mean_interval_seconds = 0.0;
  EXPECT_THROW(BackgroundLoadProcess(bad, 1, 1), std::invalid_argument);
  BackgroundLoadConfig bad2;
  bad2.max_slowdown = 0.5;
  EXPECT_THROW(BackgroundLoadProcess(bad2, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dollymp
