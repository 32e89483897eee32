#include "stats/prng.hpp"

#include <cmath>

#include "parallel/hash.hpp"

namespace fpq::stats {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  const std::uint64_t z = parallel::mix64(state);
  state += 0x9E3779B97F4A7C15ULL;
  return z;
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
}

void Xoshiro256pp::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump_word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump_word & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (*this)();
    }
  }
  s_ = {s0, s1, s2, s3};
}

Xoshiro256pp Xoshiro256pp::split(std::uint64_t stream_id) noexcept {
  std::uint64_t material = (*this)() ^ (stream_id * 0x9E3779B97F4A7C15ULL);
  material ^= (*this)() + 0x94D049BB133111EBULL;
  return Xoshiro256pp{material};
}

double uniform_range(Xoshiro256pp& g, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(g);
}

std::uint64_t uniform_below(Xoshiro256pp& g, std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless algorithm.
  std::uint64_t x = g();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = g();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double standard_normal(Xoshiro256pp& g) noexcept {
  // Marsaglia polar method; consumes a variable number of uniforms but is
  // exact and branch-simple. We deliberately discard the second variate to
  // keep the call stateless.
  for (;;) {
    const double u = 2.0 * uniform01(g) - 1.0;
    const double v = 2.0 * uniform01(g) - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double normal(Xoshiro256pp& g, double mean, double sigma) noexcept {
  return mean + sigma * standard_normal(g);
}

}  // namespace fpq::stats
