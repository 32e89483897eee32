// fpq::parallel — the stateless operand PRNG shared by the differential
// verification engine (sweep32), its references and their tests. The
// host-FPU pieces the sweep runs (opaque ops, the rounding-direction map
// and guard) live in fpmon/hardware.hpp with every other host-FPU caller.
#pragma once

#include <cstdint>

#include "parallel/hash.hpp"

namespace fpq::parallel::sweep_detail {

/// Stateless-seedable splitmix64 stream for operand generation.
struct Sm64 {
  std::uint64_t state;
  explicit Sm64(std::uint64_t seed) noexcept : state(seed) {}
  std::uint64_t next() noexcept {
    const std::uint64_t z = mix64(state);
    state += 0x9E3779B97F4A7C15ULL;
    return z;
  }
};

}  // namespace fpq::parallel::sweep_detail
