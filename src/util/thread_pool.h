// Fixed-size worker pool for the embarrassingly parallel layers of the
// pipeline: EM restarts, BIC candidates, bootstrap replicates.
//
// Design constraints (see DESIGN.md "Threading model"):
//   * Determinism is owned by the callers, not the pool: every parallel
//     site forks its RNGs and allocates its output slots *before* dispatch
//     and reduces results in index order afterwards, so the answer is
//     bitwise identical for any worker count (including the serial path).
//   * No work stealing, no task priorities — the units of work here are
//     coarse (an entire EM restart), so a mutex-protected queue is cheap.
//   * Exceptions thrown by a task are captured per index and rethrown at
//     the join point, lowest index first (parallel_indexed), so error
//     behavior also does not depend on scheduling.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dcl::util {

class ThreadPool {
 public:
  // Spawns `workers` threads (at least one). The pool is fixed-size for
  // its whole lifetime.
  explicit ThreadPool(std::size_t workers);

  // Drains the queue (already-submitted tasks run to completion), then
  // joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  // Enqueues `fn` and returns a future for its result. The future also
  // carries any exception the task throws.
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // std::thread::hardware_concurrency(), floored at 1 (the standard allows
  // it to return 0 when unknown).
  static std::size_t hardware_threads();

  // Maps a user-facing thread-count option to a worker count:
  // 0 (or negative) = all hardware threads, k = exactly k.
  static std::size_t resolve(int requested);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Runs fn(0), fn(1), ..., fn(n - 1), each exactly once. With a null pool
// (or n <= 1) the calls run serially in index order on the calling thread.
// Otherwise min(workers, n) runner tasks claim the next unclaimed index,
// in ascending order, from a shared atomic until the range is exhausted,
// and the call returns after joining them. A slow item therefore never
// holds up the items behind it, and an n-item fleet never materializes n
// closures. Determinism is the caller's: index-addressed output slots and
// a post-join reduction in index order.
//
// Exceptions: every runner keeps claiming indices after a failure (so
// fn(i) still runs exactly once per index), and the exception of the
// lowest failing index is rethrown after the join — scheduling-
// independent. It is caught into a slot the caller owns rather than left
// in a task's future, because a worker destroys its finished task after
// the caller may have read the exception: a future would hold the last
// reference to it, and the worker could free what the caller is reading.
// Callers that must not lose work to a throwing sibling (the fleet
// engine) catch inside fn instead.
template <typename Fn>
void parallel_indexed(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::size_t err_index = n;
  std::exception_ptr err;
  auto runner = [&]() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
  };
  const std::size_t runners = std::min(pool->workers(), n);
  std::vector<std::future<void>> futures;
  futures.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r)
    futures.push_back(pool->submit(runner));
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();  // surfaces submit/packaged_task failures
  if (err) std::rethrow_exception(err);
}

}  // namespace dcl::util
