#include "ir/batch.hpp"

#include <bit>
#include <cstdint>

namespace fpq::ir {

std::uint64_t hash_bindings(std::span<const double> xs,
                            std::size_t width) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ (xs.size() + (width << 32));
  for (const double x : xs) {
    std::uint64_t z =
        h ^ (std::bit_cast<std::uint64_t>(x) + 0x9E3779B97F4A7C15ULL +
             (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = z ^ (z >> 27);
  }
  return h;
}

}  // namespace fpq::ir
