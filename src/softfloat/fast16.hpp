// fpq::softfloat — binary16 fast-path primitives for the batch kernels'
// per-lane bodies (kernels::impl::add16_lane and friends in
// batch_kernels_impl.hpp) and the sweep32 binary16 references.
//
// A lane widens its binary16 operands to native doubles, runs the
// arithmetic on the host FPU (pinned to round-to-nearest by the caller)
// and folds the result back in-format through the same
// detail::round_pack<16> core the scalar engine uses, so values and flags
// are bit-identical to the softfloat operations by construction rather
// than by reimplementation:
//
//  - add/sub/mul of binary16 values are EXACT in binary64 (11-bit
//    significands, |exponent| <= 24 quanta against a 53-bit target), so
//    the native result is the infinitely precise result and the one
//    round_pack rounding is the only rounding that ever happens.
//  - div/sqrt are correctly rounded in binary64, and with 53 >= 2*11 + 2
//    the extra binary64 rounding is innocuous in every rounding mode: a
//    quotient (root) of binary16 values is either exactly a binary16
//    rounding boundary or separated from every boundary by far more than
//    the binary64 rounding error, so the boundary comparisons inside
//    round_pack come out the same as for the exact value.
//  - fma residues CAN land closer to a boundary than binary64 can
//    represent (e.g. 65504 + 2^-48), so the lane compresses the exact
//    sum through TwoSum + round-to-odd (fast32::add_round_odd) before
//    handing it to round16().
//
// Anything special — NaN or infinity operands, division by zero, sqrt of
// a negative — takes the scalar softfloat operation for that lane
// instead, which also keeps NaN payload propagation canonical. This
// header is internal to the softfloat module.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "softfloat/detail.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat::fast16 {

inline constexpr std::uint64_t kExpMask64 = 0x7FF0000000000000ull;
inline constexpr std::uint64_t kFracMask64 = 0x000FFFFFFFFFFFFFull;

inline bool is_finite(double v) noexcept {
  return (std::bit_cast<std::uint64_t>(v) & kExpMask64) != kExpMask64;
}

/// Exact widening of a binary16 encoding to its double value (including
/// NaN payloads, which land in the same bits convert<64,16> puts them in).
inline double widen(Float16 x) noexcept {
  const std::uint64_t sign = static_cast<std::uint64_t>(x.bits >> 15) << 63;
  const std::uint32_t mag = x.bits & 0x7FFFu;
  if (mag - 0x0400u < 0x7800u) {  // normal: rebias 15 -> 1023
    return std::bit_cast<double>(
        sign | ((static_cast<std::uint64_t>(mag) << 42) +
                (std::uint64_t{1023 - 15} << 52)));
  }
  const auto frac = static_cast<std::uint64_t>(x.fraction());
  if (mag >= 0x7C00u) {  // infinity / NaN: payload shifts into the top bits
    return std::bit_cast<double>(sign | kExpMask64 | (frac << 42));
  }
  if (frac == 0) return std::bit_cast<double>(sign);
  // Subnormal: value = frac * 2^-24, normalized into a double.
  const int top = 63 - std::countl_zero(frac);  // 0..9
  const std::uint64_t mant = (frac ^ (std::uint64_t{1} << top)) << (52 - top);
  const auto bexp = static_cast<std::uint64_t>(top - 24 + 1023);
  return std::bit_cast<double>(sign | (bexp << 52) | mant);
}

/// The inverse of widen() for a double that is exactly a binary16 value
/// or an infinity: integer re-encoding, no rounding.
inline Float16 encode(double v) noexcept {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(v);
  const auto sign = static_cast<std::uint16_t>((b >> 63) << 15);
  const std::uint64_t mag = b & ~(std::uint64_t{1} << 63);
  if (mag == 0) return Float16{sign};
  if ((mag & kExpMask64) == kExpMask64) {
    return Float16{static_cast<std::uint16_t>(sign | 0x7C00u)};
  }
  const int e = static_cast<int>(mag >> 52) - 1023;
  if (e >= -14) {  // normal in binary16: rebias 1023 -> 15
    return Float16{static_cast<std::uint16_t>(
        sign | ((mag - (std::uint64_t{1023 - 15} << 52)) >> 42))};
  }
  // Subnormal: value = sig16 * 2^-24 with sig16 < 2^10.
  const std::uint64_t sig =
      ((mag & kFracMask64) | (std::uint64_t{1} << 52)) >> (42 + (-14 - e));
  return Float16{static_cast<std::uint16_t>(sign | sig)};
}

/// Rounds a NORMAL nonzero double into binary16 through the scalar
/// engine's round/pack core (all five modes, FTZ, tininess-after-rounding,
/// per-mode overflow results). Flags accumulate on `env` exactly as the
/// softfloat operation would raise them. The caller guarantees `x` is
/// finite, nonzero, and not a double-subnormal (every nonzero result of
/// binary16 arithmetic is a normal double: the smallest magnitude any op
/// can produce is 2^-48).
inline Float16 round16(double x, Env& env) noexcept {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const bool sign = (b >> 63) != 0;
  const auto exp = static_cast<std::int32_t>((b >> 52) & 0x7FF) - 1023;
  const std::uint64_t sig = ((b & kFracMask64) | (std::uint64_t{1} << 52))
                            << 11;
  return detail::round_pack<16>(sign, exp, sig, false, env);
}

/// Bit pattern of the largest finite binary16 value (65504) widened to
/// double, sign cleared: anything above it after rounding overflowed.
inline constexpr std::uint64_t kMaxMag16 =
    (std::uint64_t{1038} << 52) | (std::uint64_t{0x3FF} << 42);

/// Value-only narrowing of a NORMAL nonzero double to the nearest
/// binary16 value under `mode`, returned re-widened to double. Computes
/// no flags — it exists for operand narrowing (narrow_from_double_n<16>,
/// the tape's kVar loads), where flags are discarded by contract, and is
/// several times cheaper than round16(). Works by add-and-mask rounding
/// on the double's bit pattern: within the binary16 value set,
/// consecutive values are a fixed pattern step apart (2^42 for normals,
/// 2^(42+shift) in the subnormal range) and the carry out of the fraction
/// walks binades, so one masked integer add rounds correctly in every
/// mode; the kept lsb of the pattern is the parity ties-to-even needs.
inline double narrow16_value(double x, Rounding mode) noexcept {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = b & (std::uint64_t{1} << 63);
  std::uint64_t mag = b ^ sign;
  const int e = static_cast<int>(mag >> 52) - 1023;
  if (e <= -25) {
    // At or below half the smallest subnormal (2^-25): the candidates
    // are 0 and 2^-24, decided by mode and which side of half we're on.
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:
        away = e == -25 && (mag & kFracMask64) != 0;  // ties go to 0
        break;
      case Rounding::kNearestAway: away = e == -25; break;
      case Rounding::kTowardZero: break;
      case Rounding::kUp: away = sign == 0; break;
      case Rounding::kDown: away = sign != 0; break;
    }
    return std::bit_cast<double>(
        sign | (away ? std::bit_cast<std::uint64_t>(0x1p-24) : 0));
  }
  const int q = e < -14 ? 42 + (-14 - e) : 42;  // first discarded bit
  const std::uint64_t low = (std::uint64_t{1} << q) - 1;
  switch (mode) {
    case Rounding::kNearestEven:
      mag += (low >> 1) + ((mag >> q) & 1);
      break;
    case Rounding::kNearestAway:
      mag += (low >> 1) + 1;  // exactly half: ties carry away
      break;
    case Rounding::kTowardZero: break;
    case Rounding::kUp:
      if (sign == 0) mag += low;
      break;
    case Rounding::kDown:
      if (sign != 0) mag += low;
      break;
  }
  mag &= ~low;
  if (mag > kMaxMag16) {  // per-mode overflow saturation
    const bool to_inf = mode == Rounding::kNearestEven ||
                        mode == Rounding::kNearestAway ||
                        (mode == Rounding::kUp && sign == 0) ||
                        (mode == Rounding::kDown && sign != 0);
    mag = to_inf ? kExpMask64 : kMaxMag16;
  }
  return std::bit_cast<double>(sign | mag);
}

/// One ulp step toward the sign of `dir` (caller guarantees the step
/// cannot cross zero or leave the finite range).
inline double step_toward(double s, double dir) noexcept {
  std::uint64_t b = std::bit_cast<std::uint64_t>(s);
  b += ((dir > 0.0) == (s > 0.0)) ? 1u : std::uint64_t(-1);
  return std::bit_cast<double>(b);
}

}  // namespace fpq::softfloat::fast16
