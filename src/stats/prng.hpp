// fpq::stats — deterministic pseudo-random number generation.
//
// Every stochastic component in fpqual takes an explicit 64-bit seed and
// owns its own generator; there is no global RNG state anywhere in the
// library.  The same seed therefore reproduces every figure bit-for-bit,
// which the test suite relies on.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through
// splitmix64 so that low-entropy seeds (0, 1, 2, ...) still produce
// well-distributed streams.  Both are implemented from the published
// reference algorithms.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace fpq::stats {

/// One step of the splitmix64 sequence starting at `state`; advances state.
/// Used for seeding and for cheap stateless hashing of seed material.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256++ 1.0. 256 bits of state, period 2^256 - 1, jump support.
/// Satisfies (a useful subset of) the C++ UniformRandomBitGenerator
/// concept so it can drive <random> distributions if callers want that,
/// although fpqual uses its own distribution helpers for determinism
/// across standard library implementations.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 as recommended by the
  /// reference implementation.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniformly distributed bits. Inline, as are uniform01 and
  /// bernoulli: samplers call it dozens of times per generated record,
  /// and each call is a few integer steps.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls to operator(); used to partition one seed
  /// into independent streams (one per respondent, per question, ...).
  void jump() noexcept;

  /// Derives an independent child generator: reseeds from this stream's
  /// next two outputs mixed with `stream_id`. Cheap, deterministic, and
  /// collision-resistant enough for simulation fan-out.
  Xoshiro256pp split(std::uint64_t stream_id) noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

// uniform01 and bernoulli are inline in every includer, whatever its FP
// flags: they use only exact operations (a 53-bit integer to double
// conversion, a scale by 2^-53 and a compare), so no flag can change a
// result. Anything that rounds (uniform_range, standard_normal) stays in
// prng.cpp, which is built with the strict FP flags.

/// Uniform double in [0, 1) with 53 random bits (never returns 1.0):
/// every result is an exact multiple of 2^-53.
inline double uniform01(Xoshiro256pp& g) noexcept {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi). Requires lo < hi and both finite.
double uniform_range(Xoshiro256pp& g, double lo, double hi) noexcept;

/// Unbiased uniform integer in [0, n) via Lemire's multiply-shift with
/// rejection. Requires n > 0.
std::uint64_t uniform_below(Xoshiro256pp& g, std::uint64_t n) noexcept;

/// Bernoulli draw with success probability p (clamped to [0,1]). Always
/// consumes exactly one draw, so the stream position never depends on p.
/// Because uniform01 lies in [0, 1), the one compare is the clamp: it is
/// false for every p <= 0 (and NaN) and true for every p >= 1.
inline bool bernoulli(Xoshiro256pp& g, double p) noexcept {
  return uniform01(g) < p;
}

/// Standard normal via the Marsaglia polar method (exact, no tables).
double standard_normal(Xoshiro256pp& g) noexcept;

/// Normal with the given mean and standard deviation (sigma >= 0).
double normal(Xoshiro256pp& g, double mean, double sigma) noexcept;

}  // namespace fpq::stats
