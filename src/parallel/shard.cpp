#include "parallel/shard.hpp"

#include <algorithm>

#include "parallel/hash.hpp"

namespace fpq::parallel {

std::uint64_t shard_seed(std::uint64_t base_seed,
                         std::uint64_t shard_index) noexcept {
  // Mix the shard index into the stream position, then take the second
  // splitmix64 output from there so that even base_seed == shard_index
  // patterns decorrelate.
  const std::uint64_t state =
      base_seed ^ (0x9E3779B97F4A7C15ULL * (shard_index + 1));
  return mix64(state + 0x9E3779B97F4A7C15ULL);
}

ChunkRange chunk_range(std::size_t total, std::size_t chunks,
                       std::size_t chunk) noexcept {
  ChunkRange r;
  r.begin = total * chunk / chunks;
  r.end = total * (chunk + 1) / chunks;
  return r;
}

std::size_t recommended_chunks(const ThreadPool& pool, std::size_t total,
                               std::size_t min_per_chunk) noexcept {
  if (total == 0) return 0;
  if (min_per_chunk == 0) min_per_chunk = 1;
  // 4 chunks per lane leaves enough slack for stealing to even out load
  // imbalance without drowning in per-chunk overhead.
  const std::size_t by_lanes = pool.lanes() * 4;
  const std::size_t by_grain = (total + min_per_chunk - 1) / min_per_chunk;
  return std::clamp<std::size_t>(std::min(by_lanes, by_grain), 1, total);
}

}  // namespace fpq::parallel
