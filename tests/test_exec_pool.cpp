#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/dispatcher.hpp"
#include "exec/eval_cache.hpp"
#include "exec/thread_pool.hpp"

namespace hadas {
namespace {

TEST(ThreadPool, InlineModeHasNoWorkers) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // inline mode: iterations run on the caller
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  pool.parallel_for(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, LifecycleRepeatedConstructDestroy) {
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> ran{0};
    {
      exec::ThreadPool pool(3);
      EXPECT_EQ(pool.size(), 3u);
      pool.parallel_for(10, [&ran](std::size_t) { ran.fetch_add(1); });
    }  // destructor drains and joins
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  // parallel_for can return while helper tasks it posted are still queued
  // (the caller claimed every iteration first). The destructor must drain
  // them: none may be dropped or run against a dead pool.
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(2);
    for (int round = 0; round < 64; ++round)
      pool.parallel_for(2, [&ran](std::size_t) { ran.fetch_add(1); });
  }  // join: every iteration ran exactly once, no helper left behind
  EXPECT_EQ(ran.load(), 128);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for(counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  exec::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Remaining iterations still ran to completion.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  for (std::size_t threads : {2u, 4u}) {
    exec::ThreadPool pool(threads);
    std::atomic<int> inner_runs{0};
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(8, [&](std::size_t) { inner_runs.fetch_add(1); });
    });
    EXPECT_EQ(inner_runs.load(), 32);
  }
}

TEST(Dispatcher, MapReturnsResultsInIndexOrder) {
  exec::ParallelDispatcher dispatcher({/*threads=*/4, /*cache_capacity=*/0});
  const auto out = dispatcher.map(
      100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(Dispatcher, SerialFallbackMatchesParallel) {
  exec::ParallelDispatcher serial({/*threads=*/1, 0});
  exec::ParallelDispatcher parallel({/*threads=*/4, 0});
  EXPECT_TRUE(serial.serial());
  EXPECT_FALSE(parallel.serial());
  auto fn = [](std::size_t i) { return static_cast<double>(i) * 0.5 + 1.0; };
  EXPECT_EQ(serial.map(37, fn), parallel.map(37, fn));
}

TEST(Dispatcher, HadasThreadsEnvOverridesConfig) {
  ASSERT_EQ(setenv("HADAS_THREADS", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8, 0}), 1u);
  ASSERT_EQ(setenv("HADAS_THREADS", "3", 1), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8, 0}), 3u);
  ASSERT_EQ(setenv("HADAS_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8, 0}), 8u);  // ignored
  ASSERT_EQ(unsetenv("HADAS_THREADS"), 0);
  EXPECT_EQ(exec::resolve_threads({/*threads=*/8, 0}), 8u);
  EXPECT_GE(exec::resolve_threads({/*threads=*/0, 0}), 1u);  // auto
}

TEST(Dispatcher, TaskRngDeterministicInSeedAndIndex) {
  auto a = exec::ParallelDispatcher::task_rng(42, 7);
  auto b = exec::ParallelDispatcher::task_rng(42, 7);
  auto c = exec::ParallelDispatcher::task_rng(42, 8);
  auto d = exec::ParallelDispatcher::task_rng(43, 7);
  const std::uint64_t va = a.next_u64();
  EXPECT_EQ(va, b.next_u64());   // same (seed, index) -> same stream
  EXPECT_NE(va, c.next_u64());   // different index -> different stream
  EXPECT_NE(va, d.next_u64());   // different seed -> different stream
}

TEST(EvalCache, MemoizesAndCountsHits) {
  exec::EvalCache<int> cache(/*capacity=*/64);
  std::atomic<int> computes{0};
  auto compute = [&] {
    computes.fetch_add(1);
    return 11;
  };
  EXPECT_EQ(cache.get_or_compute(5, compute), 11);
  EXPECT_EQ(cache.get_or_compute(5, compute), 11);
  EXPECT_EQ(computes.load(), 1);
  const exec::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(EvalCache, EvictsFifoAtCapacityWithoutChangingValues) {
  exec::EvalCache<std::size_t> cache(/*capacity=*/16, /*shards=*/1);
  for (std::size_t k = 0; k < 200; ++k)
    cache.get_or_compute(k, [k] { return k * 2; });
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.stats().evictions, 0u);
  // Evicted keys recompute to the same value (pure function of the key).
  EXPECT_EQ(cache.get_or_compute(0, [] { return std::size_t{0}; }), 0u);
}

TEST(EvalCache, ConcurrentMixedKeysAreConsistent) {
  exec::EvalCache<std::size_t> cache(/*capacity=*/0);
  exec::ThreadPool pool(4);
  std::atomic<bool> wrong{false};
  pool.parallel_for(2000, [&](std::size_t i) {
    const std::uint64_t key = i % 64;
    const std::size_t value =
        cache.get_or_compute(key, [key] { return key * 7; });
    if (value != key * 7) wrong.store(true);
  });
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(cache.size(), 64u);
}

}  // namespace
}  // namespace hadas
