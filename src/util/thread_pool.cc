#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace v6::util {

unsigned ThreadPool::hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = hardware_threads();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

void run_sharded(
    std::size_t items, unsigned shards,
    const std::function<void(unsigned, std::size_t, std::size_t)>& fn) {
  if (shards <= 1) {
    fn(0, 0, items);
    return;
  }
  ThreadPool pool(shards);
  for (unsigned s = 0; s < shards; ++s) {
    const ShardRange r = shard_range(items, s, shards);
    pool.submit([&fn, s, r] { fn(s, r.begin, r.end); });
  }
  pool.wait_idle();
}

}  // namespace v6::util
