// fpq::softfloat — binary32 fast-path primitives for the batch kernels'
// per-lane bodies: the fast16 technique (see fast16.hpp) scaled up one
// format. The AVX2 kernels run the same steps on 4 doubles per vector.
//
// Lanes hold binary32 VALUES as native doubles; arithmetic runs on the
// host FPU (pinned to round-to-nearest by the caller) and each result is
// folded back in-format by impl::fold32 (batch_kernels_impl.hpp): one
// masked integer add for normal results, and the same add at a per-value
// bit for the tiny band, which reproduces detail::round_pack<32>'s
// tininess and FTZ rules (fold32_tiny). The headroom is tighter
// than binary16's, so the per-op arguments differ:
//
//  - mul of binary32 values is EXACT in binary64 (24+24 = 48 significand
//    bits against a 53-bit target), exactly like every fast16 op.
//  - add/sub are NOT exact in binary64 (aligning two 24-bit significands
//    can need far more than 53 bits), so the sum is compressed through
//    TwoSum + round-to-odd first: with 53 >= 24 + 2, rounding the
//    round-to-odd compression to binary32 equals rounding the exact sum
//    in every mode (Boldo–Melquiond). fma uses the same compression on
//    t + c after the exact product t = a*b.
//  - div/sqrt are correctly rounded in binary64, and with 53 >= 2*24 + 2
//    the extra binary64 rounding is innocuous in all five modes: a
//    quotient (root) of binary32 values is either exactly a binary32
//    rounding boundary or separated from every boundary by far more than
//    the binary64 rounding error (sweep32_ref.hpp states the exclusion
//    bounds), so the boundary comparisons of the fold come out the same
//    as for the exact value.
//
// Every nonzero double these paths can produce is a NORMAL double: the
// smallest magnitude is a product of two minimum subnormals
// (2^-149 * 2^-149 = 2^-298) and the largest a quotient max/minsub
// (< 2^278), both comfortably inside binary64's normal range — so the
// fold's normal-double precondition holds and `s == 0.0` detects an exact
// zero.
//
// Anything special — NaN or infinity operands, division by zero — takes
// the scalar softfloat operation for that lane instead, which keeps NaN
// payload propagation and invalid/divide-by-zero flags canonical. This
// header is internal to the softfloat module.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "softfloat/env.hpp"
#include "softfloat/value.hpp"

namespace fpq::softfloat::fast32 {

inline constexpr std::uint64_t kExpMask64 = 0x7FF0000000000000ull;
inline constexpr std::uint64_t kFracMask64 = 0x000FFFFFFFFFFFFFull;

/// True for a value in binary32's subnormal range (0 < |v| < 2^-126) —
/// the operands that raise kFlagDenormalInput / get flushed by DAZ.
inline bool is_subnormal32(double v) noexcept {
  return v != 0.0 && std::fabs(v) < 0x1p-126;
}

/// DAZ operand flush: binary32-subnormal magnitudes become signed zero.
inline double daz32(double v) noexcept {
  return std::fabs(v) < 0x1p-126 ? std::copysign(0.0, v) : v;
}

/// Exact widening of a binary32 encoding to its double value (including
/// NaN payloads, which land in the same bits convert<64,32> puts them in).
inline double widen(Float32 x) noexcept {
  const std::uint64_t sign = static_cast<std::uint64_t>(x.bits >> 31) << 63;
  const std::uint32_t mag = x.bits & 0x7FFF'FFFFu;
  if (mag - 0x0080'0000u < 0x7F00'0000u) {  // normal: rebias 127 -> 1023
    return std::bit_cast<double>(
        sign | ((static_cast<std::uint64_t>(mag) << 29) +
                (std::uint64_t{1023 - 127} << 52)));
  }
  const auto frac = static_cast<std::uint64_t>(x.fraction());
  if (mag >= 0x7F80'0000u) {  // infinity / NaN: payload shifts up
    return std::bit_cast<double>(sign | kExpMask64 | (frac << 29));
  }
  if (frac == 0) return std::bit_cast<double>(sign);
  // Subnormal: value = frac * 2^-149, normalized into a double.
  const int top = 63 - std::countl_zero(frac);  // 0..22
  const std::uint64_t mant = (frac ^ (std::uint64_t{1} << top)) << (52 - top);
  const auto bexp = static_cast<std::uint64_t>(top - 149 + 1023);
  return std::bit_cast<double>(sign | (bexp << 52) | mant);
}

/// Bit pattern of the largest finite binary32 value ((2-2^-23) * 2^127)
/// widened to double, sign cleared: anything above it after rounding
/// overflowed.
inline constexpr std::uint64_t kMaxMag32 =
    (std::uint64_t{1150} << 52) | (std::uint64_t{0x7FFFFF} << 29);

/// Deterministic sign-bit flip (IEEE negate: no flags, NaN sign flips).
inline double flip_sign(double v) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                               (std::uint64_t{1} << 63));
}

/// One ulp step toward the sign of `dir` (caller guarantees the step
/// cannot cross zero or leave the finite range).
inline double step_toward(double s, double dir) noexcept {
  std::uint64_t b = std::bit_cast<std::uint64_t>(s);
  b += ((dir > 0.0) == (s > 0.0)) ? 1u : std::uint64_t(-1);
  return std::bit_cast<double>(b);
}

/// Compresses the exact sum a + b (any two doubles whose exact sum is
/// nonzero and cannot overflow) to its 53-bit round-to-odd value: the
/// nearest double when exact, otherwise the odd-lsb neighbour — which
/// preserves, for every binary32 rounding boundary, which side of it the
/// exact sum lies on. Rounding the result to binary32 therefore equals
/// rounding the exact sum, in all five modes (53 >= 24 + 2). The caller
/// pins the host to round-to-nearest; TwoSum's error term is exact for
/// ANY two doubles (no magnitude ordering required).
inline double add_round_odd(double a, double b) noexcept {
  const double s = a + b;
  const double bb = s - a;
  const double err = (a - (s - bb)) + (b - bb);
  if (err != 0.0 && (std::bit_cast<std::uint64_t>(s) & 1) == 0) {
    return step_toward(s, err);
  }
  return s;
}

/// The sign of an exact-zero sum (IEEE 754-2008 §6.3): positive in every
/// rounding mode except roundTowardNegative.
inline bool exact_zero_sign(Rounding mode) noexcept {
  return mode == Rounding::kDown;
}

}  // namespace fpq::softfloat::fast32
