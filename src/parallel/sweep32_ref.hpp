// fpq::parallel::sweep32 — exact (or provably correctly rounded) binary32
// references, the corner-case corpus, and ULP-stratified operand sampling.
//
// These are the "want" side of the 2^32 differential sweeps in sweep32.hpp
// and of the checked-in div/fma corpus. Reference strategies, per op:
//
//  * sqrt: the host's 53-bit correctly rounded sqrt computed under a
//    matching fenv direction, narrowed under the target mode. Double
//    rounding 53 -> 24 bits is innocuous (Figueroa: wide precision >=
//    2p + 2 = 50), and a binary32 root can never land on a 24-bit-grid
//    midpoint (its square would need ~49 significand bits), so ties never
//    arise and the hardware's ties-to-even intermediate also serves
//    roundTiesToAway.
//
//    Its flags (ref_sqrt_flags) follow from the class of the operand
//    and one exact binary64 product: the root is inexact iff r*r != x.
//
//  * div: same structure. A finite quotient exactly equal to a 24-bit
//    midpoint (a 25-bit-odd significand) would force the dividend's
//    significand past 24 bits, so the true quotient is never a midpoint;
//    and any value that IS a representable midpoint has <= 25 significand
//    bits and is therefore exact in binary64, meaning the 53-bit
//    intermediate never sits ambiguously on a 24-bit rounding boundary.
//    This covers subnormal quotients too (53 >= 2p + 2 holds a fortiori
//    at reduced subnormal precision).
//
//  * fma: the product of two binary32 values is EXACT in binary64
//    (<= 48 significand bits); Knuth TwoSum captures the addend exactly,
//    and rounding the 53-bit sum to odd before the final narrowing
//    (Boldo–Melquiond, valid since 53 >= 24 + 2) makes the narrowing
//    round as if from the exact value in all five modes.
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
//    fast16::narrow16_value — the add-and-mask narrowing path that shares
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

/// sqrt(a), correctly rounded under `mode` (all five modes).
sf::Float32 ref_sqrt(sf::Float32 a, sf::Rounding mode);

/// The flags sqrt(a) must raise when its result is `r` (no DAZ/FTZ):
/// invalid for a signaling NaN or a negative nonzero operand (negative
/// subnormals and -inf included, with no other flag), denormal-input for a
/// positive subnormal, and inexact iff r*r != a — a product computed
/// exactly in binary64, so the check shares no code with the soft
/// engine's remainder-based sticky bit. Pair it with a value reference
/// (ref_sqrt or the host FPU) that proves `r` itself.
unsigned ref_sqrt_flags(sf::Float32 a, sf::Float32 r);

/// a / b, correctly rounded under `mode` (all five modes).
sf::Float32 ref_div(sf::Float32 a, sf::Float32 b, sf::Rounding mode);

/// fma(a, b, c) with a single rounding under `mode` (all five modes).
sf::Float32 ref_fma(sf::Float32 a, sf::Float32 b, sf::Float32 c,
                    sf::Rounding mode);

/// roundToIntegralExact(a) under `mode` (all five modes). Value only; the
/// inexact-iff-changed flag contract is asserted by the sweep separately.
sf::Float32 ref_round_to_integral(sf::Float32 a, sf::Rounding mode);

/// binary32 -> binary64 (exact, mode-independent).
sf::Float64 ref_widen64(sf::Float32 a);

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

}  // namespace fpq::parallel::sweep32
