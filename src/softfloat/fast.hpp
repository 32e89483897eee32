// fpq::softfloat — fast-path primitives for the batch kernels' per-lane
// bodies (kernels::impl::add_lane<kBits> and friends in
// batch_kernels_impl.hpp) and the sweep32 binary16 references, for
// binary16 (p = 11) and binary32 (p = 24). The AVX2 kernels run the same
// steps on 4 doubles per vector.
//
// Lanes hold in-format VALUES as native doubles; arithmetic runs on the
// host FPU (pinned to round-to-nearest by the caller) and each result is
// folded back in-format by impl::fold<kBits>: one masked integer add at
// bit q = 53 - p for normal results, and the same add at a per-value bit
// for the tiny band, which reproduces detail::round_pack<kBits>'s
// tininess and FTZ rules (impl::fold_tiny<kBits>). Why the double the
// fold sees rounds like the exact result is one argument per op, each
// asserted on the format in FastFormat below:
//
//  - mul is EXACT in binary64 (2p <= 53 significand bits).
//  - add/sub need not be exact (aligning two p-bit significands can need
//    more than 53 bits), so the sum is compressed through TwoSum +
//    round-to-odd first: with 53 >= p + 2, rounding the round-to-odd
//    compression to p bits equals rounding the exact sum in every mode
//    (Boldo–Melquiond). fma uses the same compression on t + c after the
//    exact product t = a*b.
//  - div/sqrt are correctly rounded in binary64, and with 53 >= 2p + 2
//    the extra binary64 rounding is innocuous in all five modes: a
//    quotient (root) of p-bit values is either exactly a p-bit rounding
//    boundary or separated from every boundary by far more than the
//    binary64 rounding error (sweep32_ref.hpp states the exclusion
//    bounds), so the boundary comparisons of the fold come out the same
//    as for the exact value.
//
// Every nonzero double these paths can produce is a NORMAL double: the
// smallest magnitude is a product of two minimum subnormals and the
// largest a quotient max / minimum subnormal, both inside binary64's
// normal range — so the fold's normal-double precondition holds and
// `s == 0.0` detects an exact zero.
//
// Anything special — NaN or infinity operands, division by zero — takes
// the scalar softfloat operation for that lane instead, which keeps NaN
// payload propagation and invalid/divide-by-zero flags canonical. This
// header is internal to the softfloat module.
#pragma once

#include <bit>
#include <cstdint>

#include "softfloat/env.hpp"
#include "softfloat/format.hpp"
#include "softfloat/value.hpp"

namespace fpq::softfloat::fast {

inline constexpr std::uint64_t kExpMask64 = 0x7FF0000000000000ull;
inline constexpr std::uint64_t kFracMask64 = 0x000FFFFFFFFFFFFFull;

/// A format's geometry inside a binary64 pattern, and the arguments the
/// fast path leans on, stated once for every format it serves.
template <int kBits>
struct FastFormat : FormatConstants<kBits> {
  using C = FormatConstants<kBits>;
  /// Discarded double fraction bits of a normal in-format value.
  static constexpr int kQ = 52 - C::kSigBits;
  /// Exponent rebias from the format to binary64.
  static constexpr std::uint64_t kRebias = 1023 - C::kBias;
  /// Magnitude bits of 2^kEmin, the smallest normal, as a double.
  static constexpr std::uint64_t kMinNormalMag =
      static_cast<std::uint64_t>(C::kEmin + 1023) << 52;
  /// Magnitude bits of the largest finite value as a double: anything
  /// above it after rounding overflowed.
  static constexpr std::uint64_t kMaxMag =
      (static_cast<std::uint64_t>(C::kEmax + 1023) << 52) |
      (static_cast<std::uint64_t>(C::kFracMask) << kQ);
  /// Exponent of the smallest subnormal, 2^(emin - p + 1).
  static constexpr int kMinSubExp = C::kEmin - C::kSigBits;

  static_assert(2 * C::kPrecision <= 53,
                "mul: the product of two p-bit significands is exact");
  static_assert(53 >= 2 * C::kPrecision + 2,
                "div, sqrt: the binary64 rounding is innocuous (Figueroa)");
  static_assert(53 >= C::kPrecision + 2,
                "add, sub, fma: round-to-odd compression (Boldo-Melquiond)");
  static_assert(2 * kMinSubExp >= -1022 &&
                    (C::kEmax + 1) - kMinSubExp <= 1022 &&
                    2 * (C::kEmax + 1) + 1 <= 1023,
                "every nonzero product, quotient and fma sum is a normal "
                "double");
  static_assert(C::kSigBits <= -C::kEmin,
                "sqrt: the root of a subnormal is normal, so sqrt never "
                "underflows or overflows");
};

/// Largest finite magnitude of format kBits as a double pattern.
template <int kBits>
inline constexpr std::uint64_t kMaxMag = FastFormat<kBits>::kMaxMag;

/// Exact widening of an encoding to its double value (including NaN
/// payloads, which land in the same bits convert<64, kBits> puts them in).
template <int kBits>
inline double widen(Float<kBits> x) noexcept {
  using F = FastFormat<kBits>;
  const std::uint64_t sign = static_cast<std::uint64_t>(x.sign()) << 63;
  const std::uint64_t mag = x.bits & ~F::kSignMask;
  if (mag - F::kMinNormalBits < F::kExpMask - F::kMinNormalBits) {
    // Normal: rebias to 1023.
    return std::bit_cast<double>(sign |
                                 ((mag << F::kQ) + (F::kRebias << 52)));
  }
  const auto frac = static_cast<std::uint64_t>(x.fraction());
  if (mag >= F::kExpMask) {  // infinity / NaN: payload shifts up
    return std::bit_cast<double>(sign | kExpMask64 | (frac << F::kQ));
  }
  if (frac == 0) return std::bit_cast<double>(sign);
  // Subnormal: value = frac * 2^kMinSubExp, normalized into a double.
  const int top = 63 - std::countl_zero(frac);
  const std::uint64_t mant = (frac ^ (std::uint64_t{1} << top)) << (52 - top);
  const auto bexp = static_cast<std::uint64_t>(top + F::kMinSubExp + 1023);
  return std::bit_cast<double>(sign | (bexp << 52) | mant);
}

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
/// preserves, for every p-bit rounding boundary, which side of it the
/// exact sum lies on. Rounding the result to p bits therefore equals
/// rounding the exact sum, in all five modes (53 >= p + 2). The caller
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

// -- binary16 only: value-only narrowing ------------------------------------

/// The inverse of widen<16>() for a double that is exactly a binary16
/// value or an infinity: integer re-encoding, no rounding.
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

/// Value-only narrowing of a NORMAL nonzero double to the nearest
/// binary16 value under `mode`, returned re-widened to double. Computes
/// no flags — it exists for operand narrowing (narrow_from_double_n<16>,
/// the tape's kVar loads), where flags are discarded by contract. Works
/// by add-and-mask rounding on the double's bit pattern: within the
/// binary16 value set, consecutive values are a fixed pattern step apart
/// (2^42 for normals, 2^(42+shift) in the subnormal range) and the carry
/// out of the fraction walks binades, so one masked integer add rounds
/// correctly in every mode; the kept lsb of the pattern is the parity
/// ties-to-even needs.
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
  if (mag > kMaxMag<16>) {  // per-mode overflow saturation
    const bool to_inf = mode == Rounding::kNearestEven ||
                        mode == Rounding::kNearestAway ||
                        (mode == Rounding::kUp && sign == 0) ||
                        (mode == Rounding::kDown && sign != 0);
    mag = to_inf ? kExpMask64 : kMaxMag<16>;
  }
  return std::bit_cast<double>(sign | mag);
}

}  // namespace fpq::softfloat::fast
