// fpq::parallel — shared plumbing for the differential verification
// engine (sweep32) and its references: the stateless operand PRNG, the
// host rounding-direction guard, and opaque hardware arithmetic.
//
// Everything here is header-only and dependency-free beyond softfloat's
// Env, so the engine, the references and their tests share one
// definition of "run this op on the real FPU under this rounding mode"
// instead of drifting copies.
#pragma once

#include <cfenv>
#include <cmath>
#include <cstdint>

#include "softfloat/env.hpp"

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

/// RAII host rounding-direction guard (fenv state is thread-local, so
/// concurrent shards flipping modes never interfere). Writes the control
/// registers only when the direction actually changes: per-value
/// references run it once per call.
class ScopedFenvRounding {
 public:
  explicit ScopedFenvRounding(int mode)
      : saved_(std::fegetround()), changed_(mode != saved_) {
    if (changed_) std::fesetround(mode);
  }
  ~ScopedFenvRounding() {
    if (changed_) std::fesetround(saved_);
  }
  ScopedFenvRounding(const ScopedFenvRounding&) = delete;
  ScopedFenvRounding& operator=(const ScopedFenvRounding&) = delete;

 private:
  int saved_;
  bool changed_;
};

/// Host fenv constant for a directed mode; ties modes map to the
/// hardware's ties-to-even (callers justify, per op, where that is a
/// valid stand-in for ties-to-away — see the reference-strategy notes in
/// sweep32_ref.hpp).
inline int fenv_mode_of(softfloat::Rounding r) noexcept {
  switch (r) {
    case softfloat::Rounding::kTowardZero:
      return FE_TOWARDZERO;
    case softfloat::Rounding::kDown:
      return FE_DOWNWARD;
    case softfloat::Rounding::kUp:
      return FE_UPWARD;
    case softfloat::Rounding::kNearestEven:
    case softfloat::Rounding::kNearestAway:
      return FE_TONEAREST;
  }
  return FE_TONEAREST;
}

// Opaque host arithmetic: noinline + volatile defeat constant folding so
// the operations execute under the runtime fenv state.
template <typename T>
[[gnu::noinline]] T hw_add(T a, T b) {
  volatile T x = a, y = b, r = x + y;
  return r;
}
template <typename T>
[[gnu::noinline]] T hw_sub(T a, T b) {
  volatile T x = a, y = b, r = x - y;
  return r;
}
template <typename T>
[[gnu::noinline]] T hw_mul(T a, T b) {
  volatile T x = a, y = b, r = x * y;
  return r;
}
template <typename T>
[[gnu::noinline]] T hw_div(T a, T b) {
  volatile T x = a, y = b, r = x / y;
  return r;
}
template <typename T>
[[gnu::noinline]] T hw_sqrt(T a) {
  volatile T x = a;
  volatile T r = std::sqrt(x);
  return r;
}
template <typename T>
[[gnu::noinline]] T hw_fma(T a, T b, T c) {
  volatile T x = a, y = b, z = c;
  volatile T r = std::fma(x, y, z);
  return r;
}

/// Host float -> double widening through the FPU (exact by construction,
/// but kept opaque so the conversion instruction really executes).
[[gnu::noinline]] inline double hw_widen_f32(float a) {
  volatile float x = a;
  volatile double r = static_cast<double>(x);
  return r;
}

/// Host roundToIntegral: rint under the ambient fenv direction.
[[gnu::noinline]] inline float hw_rint_f32(float a) {
  volatile float x = a;
  volatile float r = std::rint(x);
  return r;
}

/// Host roundTiesToAway-to-integral: round() ties away from zero in every
/// fenv mode, which is exactly IEEE roundTiesToAway for this op.
[[gnu::noinline]] inline float hw_round_away_f32(float a) {
  volatile float x = a;
  volatile float r = std::round(x);
  return r;
}

}  // namespace fpq::parallel::sweep_detail
