#include "dollymp/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dollymp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelMap, PreservesOrder) {
  ThreadPool pool(4);
  const auto result =
      parallel_map(pool, 50, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(result.size(), 50u);
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, WaitsForEveryCallBeforeRethrowing) {
  // The calls reference the caller's frame, so the first failure may not
  // end parallel_map while later calls still run.
  std::atomic<int> finished{0};
  ThreadPool pool(4);
  EXPECT_THROW((void)parallel_map(pool, 8,
                                  [&finished](std::size_t i) {
                                    if (i == 0) throw std::runtime_error("first call fails");
                                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                    return ++finished;
                                  }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrains) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    (void)pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.size(), 0u);
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace dollymp
