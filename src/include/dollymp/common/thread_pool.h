// Fixed-size thread pool for independent replications.
//
// The experiment layer fans independent runs (different seeds, schedulers,
// load points or sweep cells) across cores through submit()/parallel_map:
// the tasks share no mutable state and join through futures, so results
// are collected in index order whatever the completion order.  A single
// simulation run never uses the pool; it is sequential by design.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dollymp {

class ThreadPool {
 public:
  /// @param threads  0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Drain the queue, join every worker and reject all later submissions.
  /// Idempotent; the destructor calls it.  After shutdown() size() is 0.
  void shutdown();

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Map fn over [0, n) collecting results in order.  If calls throw, every
/// call still finishes (they reference `fn` and whatever it captures)
/// before the first exception, in index order, is rethrown.
template <typename F>
auto parallel_map(ThreadPool& pool, std::size_t n, F&& fn)
    -> std::vector<std::invoke_result_t<F, std::size_t>> {
  using R = std::invoke_result_t<F, std::size_t>;
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  }
  std::vector<R> results;
  results.reserve(n);
  std::exception_ptr error;
  for (auto& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace dollymp
