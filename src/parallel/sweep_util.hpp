// fpq::parallel — the stateless operand PRNG shared by the differential
// verification engine (sweep32), its references and their tests. The
// host-FPU pieces the sweep runs (opaque ops, the rounding-direction map
// and guard) live in fpmon/hardware.hpp with every other host-FPU caller.
#pragma once

#include <cstdint>

namespace fpq::parallel::sweep_detail {

/// Stateless-seedable splitmix64 stream for operand generation (the
/// parallel substrate cannot link fpq_stats; see shard.cpp).
struct Sm64 {
  std::uint64_t state;
  explicit Sm64(std::uint64_t seed) noexcept : state(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

}  // namespace fpq::parallel::sweep_detail
