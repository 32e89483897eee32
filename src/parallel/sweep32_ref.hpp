// fpq::parallel::sweep32 — exact (or provably correctly rounded)
// references, the corner-case corpus, and the operand samplers.
//
// These are the "want" side of the differential sweeps in sweep32.hpp and
// of the checked-in div/fma corpus. The arithmetic references are
// templates over sf::Float<kBits>, instantiated for binary16 (p = 11) and
// binary32 (p = 24). Each one computes in the host's binary64 (53 bits)
// and narrows once under the target mode, and each leans on one of three
// arguments, stated here once with p as a parameter:
//
//  * Exact product (2p <= 53): the product of two p-bit significands has
//    at most 2p bits, so a*b is exact in binary64. mul is that product
//    narrowed once; fma and add start from it.
//
//  * Figueroa (53 >= 2p + 2): rounding the correctly rounded 53-bit
//    quotient or root again to p bits is innocuous, and a directed mode
//    composes exactly when the wide step uses the same direction. No
//    tie can arise either: a quotient or root that is exactly a p-bit
//    midpoint (a (p+1)-bit-odd significand) would force an operand past
//    p bits, and any representable midpoint has <= p + 1 bits and is
//    exact in binary64, so the 53-bit intermediate never sits
//    ambiguously on a boundary. The hardware's ties-to-even intermediate
//    therefore serves roundTiesToAway too. This holds a fortiori at
//    reduced subnormal precision. Used by div and sqrt.
//
//  * Round-to-odd (53 >= p + 2, Boldo-Melquiond): Knuth TwoSum captures
//    the exact residual of product + addend; stepping an even 53-bit sum
//    one ulp toward the residual makes it odd, and a single narrowing of
//    that odd value rounds as if from the exact sum in all five modes.
//    Used by fma, and by add and sub as fma(a, 1, b).
//
// The batch kernels' lane bodies (softfloat/fast.hpp) lean on the same
// three arguments, asserted there per format, and share one helper with
// these references, fast::step_toward. So the binary16 kernel rows check
// each kernel lane against the scalar soft op as well, which shares no
// code with either.
//
// The remaining references are binary32 only:
//
//  * sqrt's flags: they follow from the class of the operand and one
//    exact binary64 product: the root is inexact iff r*r != x.
//
//  * roundToIntegralExact: the host's rint under a matching fenv
//    direction; roundTiesToAway uses the host's round(), whose
//    ties-away-from-zero semantics are mode-independent and exactly the
//    IEEE attribute.
//
//  * binary32 -> binary64: the host's widening conversion (exact in every
//    mode).
//
//  * binary32 -> binary16: exact widening to binary64 followed by
//    fast::narrow16_value — the add-and-mask narrowing path that shares
//    no code with convert<16,32>'s unpack/round_pack pipeline.
//
//  * binary32 <-> bfloat16: pure integer arithmetic on the encodings.
//    bfloat16 is binary32's exponent layout with 16 fraction bits
//    dropped, so correctly rounding binary32 -> bfloat16 is rounding the
//    low 16 bits of the binary32 pattern (the carry walks binades and
//    saturates into infinity per mode), and widening is a 16-bit shift.
//
//  * binary16 -> binary32: integer re-biasing (subnormals normalize),
//    independent of convert's unpack path.
//
// NaN convention matches the soft engine's convert: quiet the NaN, keep
// sign, keep as much payload as fits (shifted into the destination's top
// fraction bits); signaling NaN inputs additionally raise invalid.
#pragma once

#include <cstdint>
#include <span>

#include "parallel/sweep_util.hpp"
#include "softfloat/env.hpp"
#include "softfloat/value.hpp"

namespace fpq::parallel::sweep32 {

namespace sf = fpq::softfloat;

// -- Correctly rounded references -------------------------------------------

// Arithmetic references (kBits = 16 or 32, any of the five modes). A NaN
// result is the first NaN operand quieted, or the default NaN.

/// sqrt(a), correctly rounded (Figueroa).
template <int kBits>
sf::Float<kBits> ref_sqrt(sf::Float<kBits> a, sf::Rounding mode);

/// The flags sqrt(a) must raise when its result is `r` (no DAZ/FTZ):
/// invalid for a signaling NaN or a negative nonzero operand (negative
/// subnormals and -inf included, with no other flag), denormal-input for a
/// positive subnormal, and inexact iff r*r != a — a product computed
/// exactly in binary64, so the check shares no code with the soft
/// engine's remainder-based sticky bit. Pair it with a value reference
/// (ref_sqrt or the host FPU) that proves `r` itself.
///
/// SqrtFlagsRef is its operand-only half, so a caller checking one operand
/// under several rounding modes classifies it once: of(a) holds the flags
/// that do not depend on r, and for_root(r, wide) adds inexact when
/// r*r != a.
struct SqrtFlagsRef {
  unsigned fixed = 0;   ///< the flags that do not depend on r
  unsigned square = 0;  ///< inexact when a is positive, finite and nonzero

  static SqrtFlagsRef of(sf::Float32 a) {
    if (a.is_nan()) return {a.is_signaling_nan() ? sf::kFlagInvalid : 0u};
    if (a.is_zero()) return {};                // sqrt(±0) = ±0, exact
    if (a.sign()) return {sf::kFlagInvalid};   // incl. -inf and -subnormal
    if (a.is_infinity()) return {};
    return {a.is_subnormal() ? sf::kFlagDenormalInput : 0u,
            sf::kFlagInexact};
  }

  /// `wide` is a's value in binary64. r has at most 24 significand bits
  /// and lies in [2^-75, 2^64), so r*r is exact and normal in binary64
  /// under any host rounding direction. The square is computed whatever
  /// `square` says, so a loop over it has no branch.
  unsigned for_root(sf::Float32 r, double wide) const {
    const double root = sf::to_native(r);
    return fixed | (root * root != wide ? square : 0u);
  }
};

inline unsigned ref_sqrt_flags(sf::Float32 a, sf::Float32 r) {
  const SqrtFlagsRef c = SqrtFlagsRef::of(a);
  return c.square != 0 ? c.for_root(r, sf::to_native(a)) : c.fixed;
}

/// sqrt under roundTiesToAway of every lane of `in` into `out` (same
/// size), equal lane by lane to ref_sqrt(in[i], kNearestAway). One fenv
/// guard covers the batch; a positive finite lane takes the host binary64
/// root of its exact widening, narrowed by an integer re-encode (the root
/// is a normal binary32 value, and ties never arise; see Figueroa above),
/// and every other class takes ref_sqrt's answer.
void ref_sqrt_away_n(std::span<const sf::Float32> in,
                     std::span<sf::Float32> out);

/// a / b, correctly rounded (Figueroa).
template <int kBits>
sf::Float<kBits> ref_div(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode);

/// fma(a, b, c) with a single rounding (exact product, round-to-odd).
template <int kBits>
sf::Float<kBits> ref_fma(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Float<kBits> c, sf::Rounding mode);

/// a + b, as ref_fma(a, 1, b).
template <int kBits>
sf::Float<kBits> ref_add(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode);

/// a - b, as ref_add(a, -b) once neither operand is a NaN (so a NaN b
/// keeps its sign).
template <int kBits>
sf::Float<kBits> ref_sub(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode);

/// a * b: the exact binary64 product, narrowed once.
template <int kBits>
sf::Float<kBits> ref_mul(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode);

/// roundToIntegralExact(a) under `mode` (all five modes). Value only; the
/// inexact-iff-changed flag contract is asserted by the sweep separately.
sf::Float32 ref_round_to_integral(sf::Float32 a, sf::Rounding mode);

/// binary32 -> binary64 (exact, mode-independent): the host's widening,
/// and for a NaN the quieted payload shifted into the top fraction bits.
inline sf::Float64 ref_widen64(sf::Float32 a) {
  if (a.is_nan()) {
    const std::uint64_t bits =
        (a.sign() ? std::uint64_t{1} << 63 : 0) |
        0x7FF8'0000'0000'0000ull |  // exponent and quiet bit
        (static_cast<std::uint64_t>(a.fraction()) << 29);
    return sf::Float64{bits};
  }
  return sf::from_native(static_cast<double>(sf::to_native(a)));
}

/// binary32 -> binary16, correctly rounded under `mode`.
sf::Float16 ref_narrow16(sf::Float32 a, sf::Rounding mode);

/// binary32 -> bfloat16, correctly rounded under `mode` (integer
/// add-and-mask on the encoding).
sf::BFloat16 ref_narrow_bf16(sf::Float32 a, sf::Rounding mode);

/// binary16 -> binary32 (exact widening; integer re-biasing).
sf::Float32 ref_widen_from16(sf::Float16 a);

/// bfloat16 -> binary32 (exact widening; a 16-bit shift).
sf::Float32 ref_widen_from_bf16(sf::BFloat16 a);

// -- Corner-case corpus -----------------------------------------------------

/// The checked-in binary32 corner patterns: subnormal borders, binade
/// edges, format extremes, exactly-representable tie generators,
/// cancellation pairs' halves, NaN payload variants. Positive encodings
/// only — callers mirror the sign bit (the corpus driver does).
std::span<const std::uint32_t> corner32_patterns();

/// Number of distinct operand encodings the corpus spans once signs are
/// mirrored (2 * corner32_patterns().size(), minus the duplicated zero).
std::size_t corner32_operand_count();

/// ULP-stratified random binary32 pattern: the exponent band is drawn
/// uniformly over [subnormal, max-normal] (so deep subnormals and huge
/// magnitudes are as likely as the dense middle — a uniform draw over
/// encodings would almost never probe the extremes' ULP regimes), the
/// fraction and sign uniformly. Never produces Inf/NaN; corner32_patterns
/// covers those deterministically.
std::uint32_t ulp_stratified_pattern(sweep_detail::Sm64& g) noexcept;

/// Operand population of a sampled draw (the sample rows stratify every
/// pattern prefix over these).
enum class OperandClass : std::uint8_t {
  kNormal,     ///< finite normals, full exponent range
  kSubnormal,  ///< subnormals (never zero)
  kSpecial,    ///< zeros, infinities, NaNs, format extremes, +-1
  kMixed,      ///< uniform over all encodings
};

/// One binary16/32/64 encoding drawn from `cls` (instantiated for
/// kBits = 16, 32 and 64).
template <int kBits>
typename sf::Float<kBits>::Storage gen_operand(OperandClass cls,
                                               sweep_detail::Sm64& g) noexcept;

}  // namespace fpq::parallel::sweep32
