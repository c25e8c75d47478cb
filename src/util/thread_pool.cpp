#include "util/thread_pool.h"

#include <string>

#include "obs/obs.h"

namespace dcl::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, i]() {
      obs::trace::set_thread_name(
          obs::trace::intern("pool.worker." + std::to_string(i)));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    DCL_STAGE("pool.task");
    job();
  }
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t ThreadPool::resolve(int requested) {
  if (requested <= 0) return hardware_threads();
  return static_cast<std::size_t>(requested);
}

}  // namespace dcl::util
