#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace orinsim {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SumReduction) {
  ThreadPool pool(4);
  std::vector<long long> partial(100, 0);
  pool.parallel_for(0, partial.size(),
                    [&](std::size_t i) { partial[i] = static_cast<long long>(i); });
  const long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  EXPECT_EQ(total, 99LL * 100 / 2);
}

TEST(ThreadPoolTest, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

// Regression: parallel_for used to deadlock when invoked from a pool worker
// (the inner call waited for helper shards stuck behind the caller's own
// task). A nested call now runs its whole range inline.
TEST(ThreadPoolTest, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, 4, [&](std::size_t outer) {
    pool.parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Worst case for the old deadlock: one worker, whose only thread is busy
// running the outer task when the nested call arrives.
TEST(ThreadPoolTest, NestedParallelForSingleWorkerCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 3 * 8);
}

TEST(ThreadPoolTest, ShardOverloadCoversAllIndicesWithValidShards) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.shard_count(), 4u);
  std::vector<std::atomic<int>> hits(200);
  std::atomic<bool> shard_in_range{true};
  pool.parallel_for(0, hits.size(), [&](std::size_t shard, std::size_t i) {
    if (shard >= pool.shard_count()) shard_in_range.store(false);
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(shard_in_range.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// At most one index runs per shard at a time, so unsynchronized per-shard
// accumulators are safe — the property per-worker workspaces rely on.
TEST(ThreadPoolTest, ShardOverloadSerializesWithinShard) {
  ThreadPool pool(4);
  std::vector<long long> per_shard(pool.shard_count(), 0);  // no atomics
  const std::size_t n = 5000;
  pool.parallel_for(0, n, [&](std::size_t shard, std::size_t i) {
    per_shard[shard] += static_cast<long long>(i);
  });
  const long long total = std::accumulate(per_shard.begin(), per_shard.end(), 0LL);
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPoolTest, ShardZeroIsCallingThread) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> shard0_is_caller{true};
  pool.parallel_for(0, 100, [&](std::size_t shard, std::size_t) {
    if (shard == 0 && std::this_thread::get_id() != caller) {
      shard0_is_caller.store(false);
    }
  });
  EXPECT_TRUE(shard0_is_caller.load());
}

// The one-pool rule: a parallel_for issued from inside a shard, of the same
// pool or of another, runs every index on the calling thread as shard 0.
TEST(ThreadPoolTest, NestedParallelForRunsInlineOnCallingThread) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool outer(workers);
    ThreadPool other(workers);
    for (ThreadPool* inner : {&outer, &other}) {
      std::atomic<int> foreign{0};
      std::atomic<int> nonzero_shard{0};
      std::atomic<int> hits{0};
      outer.parallel_for(0, 8, [&](std::size_t) {
        const auto self = std::this_thread::get_id();
        inner->parallel_for(0, 64, [&](std::size_t shard, std::size_t) {
          if (std::this_thread::get_id() != self) foreign.fetch_add(1);
          if (shard != 0) nonzero_shard.fetch_add(1);
          hits.fetch_add(1);
        });
        inner->parallel_rows(64, 1, [&](std::size_t r0, std::size_t r1) {
          if (r0 != 0 || r1 != 64 || std::this_thread::get_id() != self) foreign.fetch_add(1);
        });
      });
      EXPECT_EQ(foreign.load(), 0) << "workers=" << workers;
      EXPECT_EQ(nonzero_shard.load(), 0) << "workers=" << workers;
      EXPECT_EQ(hits.load(), 8 * 64) << "workers=" << workers;
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForPropagatesException) {
  for (std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool outer(workers);
    ThreadPool other(workers);
    for (ThreadPool* inner : {&outer, &other}) {
      std::atomic<int> inner_runs{0};
      EXPECT_THROW(outer.parallel_for(0, 4,
                                      [&](std::size_t i) {
                                        inner->parallel_for(0, 8, [&](std::size_t j) {
                                          inner_runs.fetch_add(1);
                                          if (i == 2 && j == 5) throw std::runtime_error("boom");
                                        });
                                      }),
                   std::runtime_error)
          << "workers=" << workers;
      // First exception wins after every index ran, nested or not.
      EXPECT_EQ(inner_runs.load(), 4 * 8) << "workers=" << workers;
    }
  }
}

TEST(ThreadPoolTest, ParallelRowsCoversRowsInContiguousRanges) {
  ThreadPool pool(3);
  for (std::size_t rows : {1u, 3u, 4u, 7u, 448u}) {
    std::vector<std::atomic<int>> hits(rows);
    std::atomic<std::size_t> calls{0};
    pool.parallel_rows(rows, 1, [&](std::size_t r0, std::size_t r1) {
      EXPECT_LT(r0, r1);
      calls.fetch_add(1);
      for (std::size_t r = r0; r < r1; ++r) hits[r].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "rows=" << rows;
    EXPECT_EQ(calls.load(), std::min<std::size_t>(rows, pool.shard_count()));
  }
  // Below the threshold the caller runs one range.
  std::size_t calls = 0;
  pool.parallel_rows(100, 256, [&](std::size_t r0, std::size_t r1) {
    EXPECT_EQ(r0, 0u);
    EXPECT_EQ(r1, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

// Spins until `count` threads have arrived: a range that waits here cannot
// finish before every other range has started, so no thread can run two.
// Gives up at `deadline`, so a pool that never starts a range fails the
// test instead of hanging it.
bool arrive_and_wait(std::atomic<std::size_t>& arrived, std::size_t count,
                     std::chrono::steady_clock::time_point deadline) {
  arrived.fetch_add(1);
  while (arrived.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Affinity: in a call with at most shard_count() indices, shard k takes
// index k first. With a barrier in every range nothing can be stolen, so
// range 0 runs on the caller and range k on the same worker in every call,
// including a call with fewer ranges than shards.
TEST(ThreadPoolTest, AffinityRunsRangeKOnTheSameThreadEveryCall) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (std::size_t rows : {448u, 2u}) {
    const std::size_t ranges = std::min(rows, pool.shard_count());
    std::vector<std::thread::id> owner(ranges);
    for (int call = 0; call < 50; ++call) {
      std::atomic<std::size_t> arrived{0};
      std::vector<std::thread::id> ran(ranges);
      pool.parallel_rows(rows, 1, [&](std::size_t r0, std::size_t) {
        const std::size_t k = r0 * ranges / rows;
        ran[k] = std::this_thread::get_id();
        EXPECT_TRUE(arrive_and_wait(arrived, ranges, deadline)) << "rows=" << rows;
      });
      EXPECT_EQ(ran[0], caller) << "rows=" << rows << " call=" << call;
      for (std::size_t k = 1; k < ranges; ++k) {
        EXPECT_NE(ran[k], caller) << "rows=" << rows << " k=" << k;
        if (call == 0) owner[k] = ran[k];
        EXPECT_EQ(ran[k], owner[k]) << "rows=" << rows << " call=" << call << " k=" << k;
      }
    }
  }
  // The shard-indexed overload names the owner: index k runs as shard k.
  for (int call = 0; call < 50; ++call) {
    std::atomic<std::size_t> arrived{0};
    std::vector<std::size_t> shard_of(pool.shard_count());
    pool.parallel_for(0, shard_of.size(), [&](std::size_t shard, std::size_t i) {
      shard_of[i] = shard;
      EXPECT_TRUE(arrive_and_wait(arrived, shard_of.size(), deadline));
    });
    for (std::size_t i = 0; i < shard_of.size(); ++i) EXPECT_EQ(shard_of[i], i);
  }
}

// Stealing stays the fallback: every index of an affinity call runs exactly
// once whether the workers spin, have parked (idle past their spin window)
// or do not exist, and inside a shard the call runs inline.
TEST(ThreadPoolTest, AffinityCallRunsEveryIndexOnce) {
  for (std::size_t workers : {0u, 1u, 3u}) {
    ThreadPool pool(workers);
    for (int call = 0; call < 20; ++call) {
      if (call % 2 == 1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      for (std::size_t n = 1; n <= pool.shard_count(); ++n) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n << " i=" << i;
        }
      }
    }
    std::vector<std::atomic<int>> nested(4 * pool.shard_count());
    pool.parallel_for(0, 4, [&](std::size_t outer) {
      const auto self = std::this_thread::get_id();
      pool.parallel_for(0, pool.shard_count(), [&](std::size_t shard, std::size_t i) {
        EXPECT_EQ(shard, 0u);
        EXPECT_EQ(std::this_thread::get_id(), self);
        nested[outer * pool.shard_count() + i].fetch_add(1);
      });
    });
    for (const auto& h : nested) EXPECT_EQ(h.load(), 1) << "workers=" << workers;
  }
}

// In an affinity call the first exception still wins, after every index ran.
TEST(ThreadPoolTest, AffinityCallRethrowsTheFirstException) {
  ThreadPool pool(3);
  std::atomic<bool> first_thrown{false};
  std::atomic<int> runs{0};
  EXPECT_THROW(pool.parallel_for(0, pool.shard_count(),
                                 [&](std::size_t i) {
                                   runs.fetch_add(1);
                                   if (i == 0) {
                                     first_thrown.store(true);
                                     throw std::runtime_error("first");
                                   }
                                   while (!first_thrown.load()) std::this_thread::yield();
                                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                                   throw std::logic_error("later");
                                 }),
               std::runtime_error);
  EXPECT_EQ(runs.load(), static_cast<int>(pool.shard_count()));
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.shard_count(), 1u);
  const auto caller = std::this_thread::get_id();
  int count = 0;
  pool.parallel_for(0, 10, [&](std::size_t shard, std::size_t) {
    EXPECT_EQ(shard, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;
  });
  EXPECT_EQ(count, 10);
}

// The kernel pool is sized from OMP_NUM_THREADS: a positive integer, else
// hardware concurrency.
TEST(ThreadPoolTest, KernelThreadCountParsesOmpNumThreads) {
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(kernel_thread_count("3"), 3u);
  EXPECT_EQ(kernel_thread_count("1"), 1u);
  EXPECT_EQ(kernel_thread_count("0"), hardware);
  EXPECT_EQ(kernel_thread_count("-2"), hardware);
  EXPECT_EQ(kernel_thread_count("abc"), hardware);
  EXPECT_EQ(kernel_thread_count("3abc"), hardware);
  EXPECT_EQ(kernel_thread_count(""), hardware);
  EXPECT_EQ(kernel_thread_count(nullptr), hardware);
}

}  // namespace
}  // namespace orinsim
