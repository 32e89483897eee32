// fpq::parallel — thread pool and sharding-primitive contracts.
//
// Everything here must hold for EVERY thread count, so the suites sweep
// pools of 1, 2, 4 and 8 lanes (the pool is exercised well beyond the
// host's core count on purpose: oversubscription must not change any
// observable result).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/result_cache.hpp"
#include "parallel/shard.hpp"
#include "parallel/stream.hpp"
#include "parallel/thread_pool.hpp"

namespace par = fpq::parallel;

namespace {

class ThreadPoolTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolTest, EveryShardRunsExactlyOnce) {
  par::ThreadPool pool(GetParam());
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    std::vector<std::atomic<int>> runs(count);
    pool.run_shards(count, [&](std::size_t shard) {
      runs[shard].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "shard " << i << " of " << count;
    }
  }
}

TEST_P(ThreadPoolTest, PoolIsReusableAcrossManyRounds) {
  par::ThreadPool pool(GetParam());
  std::uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.run_shards(17, [&](std::size_t shard) {
      sum.fetch_add(shard, std::memory_order_relaxed);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 50u * (16u * 17u / 2u));
}

TEST_P(ThreadPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  par::ThreadPool pool(GetParam());
  EXPECT_THROW(
      pool.run_shards(64,
                      [&](std::size_t shard) {
                        if (shard == 13) {
                          throw std::runtime_error("shard 13 failed");
                        }
                      }),
      std::runtime_error);
  // The pool must stay usable after a throwing job.
  std::atomic<int> ran{0};
  pool.run_shards(8, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST_P(ThreadPoolTest, ParallelMapFillsSlotsInIndexOrder) {
  par::ThreadPool pool(GetParam());
  const auto out = par::parallel_map(
      pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST_P(ThreadPoolTest, ParallelMapChunksCoversEveryIndexOnce) {
  par::ThreadPool pool(GetParam());
  const std::size_t total = 237;
  std::vector<std::atomic<int>> seen(total);
  par::parallel_map_chunks(pool, total, 16,
                           [&](std::size_t, std::size_t begin,
                               std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               seen[i].fetch_add(1,
                                                 std::memory_order_relaxed);
                             }
                           });
  for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(seen[i].load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Lanes, ThreadPoolTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ThreadPool, SingleLanePoolRunsInline) {
  // A 1-lane pool is the determinism baseline: shards run on the calling
  // thread in index order.
  par::ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.run_shards(10, [&](std::size_t shard) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    order.push_back(shard);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ShardSeed, IsStableAndDistinctAcrossIndices) {
  // Stability matters: these values participate in recorded experiment
  // outputs, so a change here is a behavioural break.
  const std::uint64_t base = 0x5EED;
  EXPECT_EQ(par::shard_seed(base, 0), par::shard_seed(base, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(par::shard_seed(base, i));
  }
  EXPECT_EQ(seen.size(), 10000u);
  // Different bases give different streams.
  EXPECT_NE(par::shard_seed(1, 0), par::shard_seed(2, 0));
}

TEST(ChunkRange, PartitionIsExactContiguousAndNearEqual) {
  for (const std::size_t total : {std::size_t{0}, std::size_t{1},
                                  std::size_t{13}, std::size_t{64},
                                  std::size_t{65536}}) {
    for (const std::size_t chunks :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const par::ChunkRange r = par::chunk_range(total, chunks, c);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_LE(r.size(),
                  total / chunks + (total % chunks == 0 ? 0 : 1));
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(prev_end, total);
    }
  }
}

TEST(RecommendedChunks, RespectsBoundsAndMinimumGranularity) {
  par::ThreadPool pool(4);
  EXPECT_EQ(par::recommended_chunks(pool, 0), 0u);  // no items, no chunks
  EXPECT_EQ(par::recommended_chunks(pool, 1), 1u);
  // Never more chunks than items.
  EXPECT_LE(par::recommended_chunks(pool, 5), 5u);
  // min_per_chunk caps the chunk count.
  EXPECT_LE(par::recommended_chunks(pool, 100, 50), 2u);
  EXPECT_GE(par::recommended_chunks(pool, 100000), pool.lanes());
}

TEST(StreamAccumulate, MergeTreeMatchesPairwiseAssociationExactly) {
  // The merge tree's shape must depend only on the chunk count. With one
  // item per chunk, a floating-point sum accumulator exposes the
  // association; verify it against an explicit reference recursion at
  // several sizes and lane counts.
  struct SumAcc {
    double sum = 0.0;
    void add(double x) { sum += x; }
    void merge(SumAcc&& other) { sum += other.sum; }
  };
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{5}, std::size_t{31},
                              std::size_t{64}, std::size_t{1000}}) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = 1.0 / static_cast<double>(i + 3);  // inexact values
    }
    struct Ref {
      static double sum(const std::vector<double>& v, std::size_t lo,
                        std::size_t hi) {
        if (hi - lo == 1) return v[lo];
        const std::size_t mid = lo + (hi - lo) / 2;
        return sum(v, lo, mid) + sum(v, mid, hi);
      }
    };
    const double expected = n == 0 ? 0.0 : Ref::sum(xs, 0, n);
    for (const std::size_t lanes : {1u, 4u}) {
      par::ThreadPool pool(lanes);
      const double got =
          par::accumulate_span(pool, std::span<const double>(xs), n,
                               [] { return SumAcc{}; })
              .sum;
      EXPECT_EQ(got, expected) << "n=" << n;  // bitwise, not approximate
    }
  }
}

// The striped memo cache, through BatchResultCache (its last instance).
TEST(ResultCache, InsertFindAndCounters) {
  par::BatchResultCache cache;
  par::BatchKey key;
  key.tape_fingerprint = 0x7EA9;
  key.bindings_hash = 0xB1B2;
  key.chunk = 7;

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  par::BatchChunkResult result;
  result.outcomes.emplace_back(0x3FF0000000000000ULL, 0u);
  cache.insert(key, result);
  EXPECT_EQ(cache.size(), 1u);

  const auto hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->outcomes, result.outcomes);
  EXPECT_EQ(cache.hits(), 1u);

  // A different chunk index is a different key.
  par::BatchKey other = key;
  other.chunk = 8;
  EXPECT_FALSE(cache.find(other).has_value());

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ResultCache, FirstWriterWinsUnderConcurrentInsert) {
  par::BatchResultCache cache;
  par::ThreadPool pool(8);
  par::BatchKey key;
  key.tape_fingerprint = 0x7EA9;
  // All shards race to insert the same key with different payloads; the
  // cache must keep exactly one and never corrupt it.
  pool.run_shards(64, [&](std::size_t shard) {
    par::BatchChunkResult r;
    r.outcomes.emplace_back(shard + 1, 0u);
    cache.insert(key, r);
  });
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->outcomes.size(), 1u);
  EXPECT_GE(hit->outcomes[0].first, 1u);
  EXPECT_LE(hit->outcomes[0].first, 64u);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(par::ThreadPool::default_thread_count(), 1u);
  par::ThreadPool pool;  // hardware default must construct fine
  EXPECT_GE(pool.lanes(), 1u);
}

}  // namespace
