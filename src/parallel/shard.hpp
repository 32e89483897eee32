// fpq::parallel — sharding and deterministic-reduction helpers.
//
// The rules that make every parallel workload in fpqual bit-identical to
// its single-threaded run (docs/parallel.md spells them out):
//
//   1. Decompose into shards whose COUNT and CONTENT depend only on the
//      input, never on the lane count or schedule.
//   2. Give each stochastic shard its own generator seeded with
//      shard_seed(base, shard) — no generator is ever shared or threaded
//      through shards in claim order.
//   3. Each shard writes only its own output slot.
//   4. Reduce on the caller's thread in fixed shard order (stream.hpp's
//      chunk-ordered merge tree for FP, plain loops for integers). No
//      atomics on floating-point accumulators, ever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace fpq::parallel {

/// Deterministic per-shard seed derived from a base seed through mix64
/// (parallel/hash.hpp): statistically independent streams for adjacent
/// shard indices, stable across platforms and thread counts.
std::uint64_t shard_seed(std::uint64_t base_seed,
                         std::uint64_t shard_index) noexcept;

/// Half-open index range of chunk `chunk` when `total` items are split
/// into `chunks` near-equal contiguous pieces (the same partition
/// ThreadPool uses for its lane blocks).
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
};
ChunkRange chunk_range(std::size_t total, std::size_t chunks,
                       std::size_t chunk) noexcept;

/// A chunk count that gives every lane a few chunks to steal while
/// keeping at least `min_per_chunk` items per chunk.
std::size_t recommended_chunks(const ThreadPool& pool, std::size_t total,
                               std::size_t min_per_chunk = 1) noexcept;

/// Maps fn over [0, count) into an index-ordered vector; shard i writes
/// slot i only, so the result is independent of the schedule.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(count);
  pool.run_shards(count,
                  [&](std::size_t shard) { out[shard] = fn(shard); });
  return out;
}

/// Chunked variant: fn(chunk, begin, end) runs once per contiguous item
/// range, for its side effects only. Use when per-item task overhead would
/// dominate; each chunk must write only its own slots of any shared output.
template <typename Fn>
void parallel_map_chunks(ThreadPool& pool, std::size_t total,
                         std::size_t chunks, Fn&& fn) {
  pool.run_shards(chunks, [&](std::size_t chunk) {
    const ChunkRange r = chunk_range(total, chunks, chunk);
    fn(chunk, r.begin, r.end);
  });
}

}  // namespace fpq::parallel
