#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace resex {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idleCv_.notify_all();
    }
  }
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idleCv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

ThreadPool& globalPool() {
  static ThreadPool pool;
  return pool;
}

void parallelForBlocked(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& fn,
                        std::size_t grainSize) {
  if (n == 0) return;
  ThreadPool& pool = globalPool();
  if (n <= grainSize || pool.threadCount() == 1) {
    fn(0, n);
    return;
  }
  const std::size_t blocks =
      std::min((n + grainSize - 1) / grainSize, pool.threadCount() * 4);
  const std::size_t per = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * per;
    if (lo >= n) break;
    const std::size_t hi = std::min(lo + per, n);
    futures.push_back(pool.submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  // Every block must finish before `fn` goes out of scope, even when one
  // throws: a later block still queued would otherwise call a dangling `fn`.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t grainSize) {
  parallelForBlocked(
      n,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grainSize);
}

}  // namespace resex
