#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace v6::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ReusableAfterWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // nothing submitted; must not hang
}

TEST(ThreadPool, DestructorDrainsOutstandingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // join happens here
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(RunSharded, PartitionsRangeExactlyOnce) {
  for (const unsigned shards : {2u, 3u, 7u, 16u}) {
    const std::size_t items = 103;
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> ranges(shards);
    std::vector<int> hits(items, 0);
    run_sharded(items, shards,
                [&](unsigned s, std::size_t begin, std::size_t end) {
                  std::lock_guard<std::mutex> lock(mu);
                  ranges[s] = {begin, end};
                  for (std::size_t i = begin; i < end; ++i) ++hits[i];
                });
    // Every item covered exactly once...
    for (std::size_t i = 0; i < items; ++i) {
      EXPECT_EQ(hits[i], 1) << "item " << i << " with " << shards
                            << " shards";
    }
    // ...by contiguous ranges balanced to within one item.
    std::size_t expect_begin = 0;
    for (unsigned s = 0; s < shards; ++s) {
      EXPECT_EQ(ranges[s].first, expect_begin);
      const std::size_t width = ranges[s].second - ranges[s].first;
      EXPECT_GE(width, items / shards);
      EXPECT_LE(width, items / shards + 1);
      expect_begin = ranges[s].second;
    }
    EXPECT_EQ(expect_begin, items);
  }
}

TEST(RunSharded, SingleShardRunsInline) {
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  run_sharded(42, 1, [&](unsigned s, std::size_t begin, std::size_t end) {
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 42u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(RunSharded, ZeroItemsStillInvokesEveryShard) {
  std::atomic<unsigned> calls{0};
  run_sharded(0, 4, [&](unsigned, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, end);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 4u);
}

// The collector's reduce pattern in miniature: per-shard local
// accumulators merged after the join must equal the serial sum.
TEST(RunSharded, PerShardAccumulatorsSumLikeSerial) {
  const std::size_t items = 10000;
  const unsigned shards = 8;
  std::vector<std::uint64_t> partial(shards, 0);
  run_sharded(items, shards,
              [&](unsigned s, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) partial[s] += i;
              });
  const std::uint64_t total =
      std::accumulate(partial.begin(), partial.end(), std::uint64_t{0});
  EXPECT_EQ(total, items * (items - 1) / 2);
}

TEST(RunSharded, CallerPoolRunsMoreShardsThanWorkersAndIsReusable) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    const std::size_t items = 1000;
    std::vector<std::atomic<int>> seen(items);
    run_sharded(&pool, items, 7,
                [&](unsigned, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) seen[i]++;
                });
    for (std::size_t i = 0; i < items; ++i) EXPECT_EQ(seen[i].load(), 1);
  }
}

TEST(RunSharded, NullPoolRunsInline) {
  const auto caller = std::this_thread::get_id();
  unsigned calls = 0;
  run_sharded(nullptr, 10, 4,
              [&](unsigned s, std::size_t begin, std::size_t end) {
                EXPECT_EQ(s, 0u);
                EXPECT_EQ(begin, 0u);
                EXPECT_EQ(end, 10u);
                EXPECT_EQ(std::this_thread::get_id(), caller);
                ++calls;
              });
  EXPECT_EQ(calls, 1u);
}

TEST(ShardCount, RespectsTheFloorAndThePool) {
  ThreadPool pool(2);
  EXPECT_EQ(shard_count(nullptr, 1'000'000, 10), 1u);
  EXPECT_EQ(shard_count(&pool, 5, 10), 1u);    // below the floor
  EXPECT_EQ(shard_count(&pool, 35, 10), 3u);   // three full shards
  EXPECT_EQ(shard_count(&pool, 1'000'000, 10), 8u);  // 4 per worker
}

TEST(AppendSharded, KeepsIndexOrderAtAnyShardCount) {
  ThreadPool pool(3);
  const auto pick = [](std::size_t i, std::vector<int>& part) {
    if (i % 3 != 0) part.push_back(static_cast<int>(i));
  };
  std::vector<int> serial = {-1};
  append_sharded<int>(nullptr, 1000, 1, serial, pick);
  for (const std::size_t min_items : {1u, 7u, 100u}) {
    std::vector<int> sharded = {-1};
    append_sharded<int>(&pool, 1000, min_items, sharded, pick);
    EXPECT_EQ(sharded, serial);
  }
  EXPECT_EQ(serial.size(), 1u + 666u);
}

}  // namespace
}  // namespace v6::util
