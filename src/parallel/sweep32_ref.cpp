// fpq::parallel::sweep32 — reference strategies and corpus. See
// sweep32_ref.hpp for the correctness arguments each reference leans on.

#include "parallel/sweep32_ref.hpp"

#include <array>
#include <bit>
#include <cfenv>
#include <cmath>

#include "fpmon/hardware.hpp"
#include "softfloat/fast.hpp"
#include "softfloat/format.hpp"
#include "softfloat/ops.hpp"

namespace fpq::parallel::sweep32 {

namespace {

namespace host = mon::host;
using mon::fenv_rounding;
using mon::ScopedFenvRounding;

constexpr std::uint32_t kSign32 = 0x8000'0000u;
constexpr std::uint32_t kQuiet32 = 0x0040'0000u;

/// NaN propagation matching detail::propagate_nan: first NaN operand in
/// argument order, quieted (flags are out of scope for the value refs).
template <int kBits>
sf::Float<kBits> nan_of(sf::Float<kBits> a, sf::Float<kBits> b) noexcept {
  return a.is_nan() ? a.quieted() : b.quieted();
}

/// The exact binary64 image of a non-NaN binary16/binary32 value, through
/// the host's float -> double widening (binary16 is re-biased to binary32
/// by integer arithmetic first, never through the soft converter).
template <int kBits>
double widen53(sf::Float<kBits> x) {
  if constexpr (kBits == 16) {
    return host::widen(sf::to_native(ref_widen_from16(x)));
  } else {
    return host::widen(sf::to_native(x));
  }
}

/// Narrow a host double to the target format through the soft converter,
/// value only. The callers guarantee the double is the correctly rounded
/// (or round-to-odd compressed) 53-bit image of the exact result, making
/// the second rounding innocuous per the header notes.
template <int kBits>
sf::Float<kBits> narrow53(double wide, sf::Rounding mode) noexcept {
  sf::Env env(mode);
  return sf::convert<kBits, 64>(sf::from_native(wide), env);
}

}  // namespace

template <int kBits>
sf::Float<kBits> ref_sqrt(sf::Float<kBits> a, sf::Rounding mode) {
  using F = sf::Float<kBits>;
  if (a.is_nan()) return a.quieted();
  if (a.is_zero()) return a;            // sqrt(±0) = ±0
  if (a.sign()) return F::quiet_nan();  // incl. sqrt(-inf)
  if (a.is_infinity()) return a;        // sqrt(+inf) = +inf
  double wide;
  {
    ScopedFenvRounding guard(fenv_rounding(mode));
    wide = host::sqrt<double>(widen53(a));
  }
  return narrow53<kBits>(wide, mode);
}

void ref_sqrt_away_n(std::span<const sf::Float32> in,
                     std::span<sf::Float32> out) {
  // Positive finite lanes are the patterns [1, 0x7F7FFFFF]. Their binary64
  // root lies in [2^-75, 2^64), so rebiasing its exponent and rounding its
  // 52-bit fraction to 23 bits (add half an ulp, truncate: ties away from
  // zero) is the binary32 encoding, the carry walking into the exponent.
  constexpr std::uint64_t kRebias = std::uint64_t{1023 - 127} << 23;
  const ScopedFenvRounding guard(FE_TONEAREST);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const sf::Float32 a = in[i];
    if (a.bits - 1u >= 0x7F7F'FFFFu) {
      out[i] = ref_sqrt(a, sf::Rounding::kNearestAway);
      continue;
    }
    const double root = host::sqrt<double>(static_cast<double>(sf::to_native(a)));
    const std::uint64_t wide = std::bit_cast<std::uint64_t>(root);
    out[i] = sf::Float32{
        static_cast<std::uint32_t>(((wide + (1u << 28)) >> 29) - kRebias)};
  }
}

template <int kBits>
sf::Float<kBits> ref_div(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode) {
  using F = sf::Float<kBits>;
  const bool sign = a.sign() != b.sign();
  if (a.is_nan() || b.is_nan()) return nan_of(a, b);
  if (a.is_infinity()) {
    if (b.is_infinity()) return F::quiet_nan();
    return F::infinity(sign);
  }
  if (b.is_infinity()) return F::zero(sign);
  if (b.is_zero()) {
    if (a.is_zero()) return F::quiet_nan();
    return F::infinity(sign);
  }
  if (a.is_zero()) return F::zero(sign);
  double wide;
  {
    ScopedFenvRounding guard(fenv_rounding(mode));
    wide = host::div<double>(widen53(a), widen53(b));
  }
  return narrow53<kBits>(wide, mode);
}

template <int kBits>
sf::Float<kBits> ref_fma(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Float<kBits> c, sf::Rounding mode) {
  using F = sf::Float<kBits>;
  const bool prod_sign = a.sign() != b.sign();
  const bool zero_times_inf = (a.is_zero() && b.is_infinity()) ||
                              (a.is_infinity() && b.is_zero());
  if (a.is_nan()) return a.quieted();
  if (b.is_nan()) return b.quieted();
  if (c.is_nan()) return c.quieted();
  if (zero_times_inf) return F::quiet_nan();
  if (a.is_infinity() || b.is_infinity()) {
    if (c.is_infinity() && c.sign() != prod_sign) {
      return F::quiet_nan();  // inf - inf
    }
    return F::infinity(prod_sign);
  }
  if (c.is_infinity()) return c;

  if (a.is_zero() || b.is_zero()) {  // exact product zero: result is 0 + c
    if (!c.is_zero()) return c;
    if (prod_sign == c.sign()) return F::zero(prod_sign);
    return F::zero(mode == sf::Rounding::kDown);
  }

  double odd;  // round-to-odd 53-bit image of the exact a*b + c
  {
    // TwoSum needs round-to-nearest; the product and widenings are exact
    // in any mode but run under the same guard for clarity.
    ScopedFenvRounding guard(FE_TONEAREST);
    const double pa = widen53(a) * widen53(b);  // exact: <= 2p bits
    const double cw = widen53(c);
    const double s = pa + cw;
    if (s == 0.0) {
      // The exact sum is a multiple of the square of the format's least
      // subnormal (2^-298 for binary32, 2^-48 for binary16), far above
      // binary64's, so RN(sum) == 0 implies the sum is exactly zero:
      // nonzero operands cancelled.
      return F::zero(mode == sf::Rounding::kDown);
    }
    const double bb = s - pa;
    const double err = (pa - (s - bb)) + (cw - bb);
    odd = s;
    if (err != 0.0 && (std::bit_cast<std::uint64_t>(s) & 1) == 0) {
      // s is the even neighbour of the exact sum: step one ulp toward the
      // residual so the kept value is odd (round-to-odd).
      odd = sf::fast::step_toward(s, err);
    }
  }
  return narrow53<kBits>(odd, mode);
}

template <int kBits>
sf::Float<kBits> ref_add(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode) {
  return ref_fma(a, sf::Float<kBits>::one(), b, mode);
}

template <int kBits>
sf::Float<kBits> ref_sub(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode) {
  if (a.is_nan() || b.is_nan()) return nan_of(a, b);
  return ref_add(a, b.negated(), mode);
}

template <int kBits>
sf::Float<kBits> ref_mul(sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Rounding mode) {
  if (a.is_nan() || b.is_nan()) return nan_of(a, b);
  if ((a.is_zero() && b.is_infinity()) || (a.is_infinity() && b.is_zero())) {
    return sf::Float<kBits>::quiet_nan();
  }
  // Exact (<= 2p bits), signed zeros and infinities included.
  return narrow53<kBits>(widen53(a) * widen53(b), mode);
}

template sf::Float16 ref_sqrt<16>(sf::Float16, sf::Rounding);
template sf::Float32 ref_sqrt<32>(sf::Float32, sf::Rounding);
template sf::Float16 ref_div<16>(sf::Float16, sf::Float16, sf::Rounding);
template sf::Float32 ref_div<32>(sf::Float32, sf::Float32, sf::Rounding);
template sf::Float16 ref_fma<16>(sf::Float16, sf::Float16, sf::Float16,
                                 sf::Rounding);
template sf::Float32 ref_fma<32>(sf::Float32, sf::Float32, sf::Float32,
                                 sf::Rounding);
template sf::Float16 ref_add<16>(sf::Float16, sf::Float16, sf::Rounding);
template sf::Float32 ref_add<32>(sf::Float32, sf::Float32, sf::Rounding);
template sf::Float16 ref_sub<16>(sf::Float16, sf::Float16, sf::Rounding);
template sf::Float32 ref_sub<32>(sf::Float32, sf::Float32, sf::Rounding);
template sf::Float16 ref_mul<16>(sf::Float16, sf::Float16, sf::Rounding);
template sf::Float32 ref_mul<32>(sf::Float32, sf::Float32, sf::Rounding);

sf::Float32 ref_round_to_integral(sf::Float32 a, sf::Rounding mode) {
  if (a.is_nan()) return a.quieted();
  if (!a.is_finite() || a.is_zero()) return a;
  if (mode == sf::Rounding::kNearestAway) {
    return sf::from_native(host::round_away(sf::to_native(a)));
  }
  ScopedFenvRounding guard(fenv_rounding(mode));
  return sf::from_native(host::rint(sf::to_native(a)));
}

sf::Float16 ref_narrow16(sf::Float32 a, sf::Rounding mode) {
  if (a.is_nan()) {
    const auto frac = static_cast<std::uint16_t>((a.fraction() >> 13) |
                                                 0x0200u);  // quiet bit
    return sf::Float16{static_cast<std::uint16_t>(
        (a.sign() ? 0x8000u : 0u) | 0x7C00u | frac)};
  }
  if (a.is_infinity()) {
    return sf::Float16{
        static_cast<std::uint16_t>((a.sign() ? 0x8000u : 0u) | 0x7C00u)};
  }
  if (a.is_zero()) {
    return sf::Float16{static_cast<std::uint16_t>(a.sign() ? 0x8000u : 0u)};
  }
  // Finite nonzero binary32 values are normal doubles (min subnormal is
  // 2^-149), so narrow16_value's precondition holds.
  return sf::fast::encode(
      sf::fast::narrow16_value(host::widen(sf::to_native(a)), mode));
}

sf::BFloat16 ref_narrow_bf16(sf::Float32 a, sf::Rounding mode) {
  const std::uint32_t b = a.bits;
  const std::uint32_t sign = b & kSign32;
  if (a.is_nan()) {
    const auto frac = static_cast<std::uint16_t>(((b & 0x007F'FFFFu) >> 16) |
                                                 0x0040u);  // quiet bit
    return sf::BFloat16{static_cast<std::uint16_t>(
        (sign >> 16) | 0x7F80u | frac)};
  }
  if (a.is_infinity()) {
    return sf::BFloat16{
        static_cast<std::uint16_t>((sign >> 16) | 0x7F80u)};
  }
  // bfloat16 is binary32's sign/exponent layout with the low 16 fraction
  // bits dropped, and the encodings order magnitudes monotonically, so
  // one masked integer add on the binary32 pattern rounds correctly in
  // every mode — the carry out of the fraction walks binades (subnormal
  // boundary included) and anything past the largest finite pattern
  // saturates per mode.
  std::uint32_t mag = b ^ sign;
  constexpr std::uint32_t kLow = 0xFFFFu;
  constexpr std::uint32_t kMaxMag = 0x7F7F'0000u;  // bf16 max finite, widened
  switch (mode) {
    case sf::Rounding::kNearestEven:
      mag += (kLow >> 1) + ((mag >> 16) & 1);
      break;
    case sf::Rounding::kNearestAway:
      mag += (kLow >> 1) + 1;
      break;
    case sf::Rounding::kTowardZero:
      break;
    case sf::Rounding::kUp:
      if (sign == 0) mag += kLow;
      break;
    case sf::Rounding::kDown:
      if (sign != 0) mag += kLow;
      break;
  }
  mag &= ~kLow;
  if (mag > kMaxMag) {
    const bool to_inf = mode == sf::Rounding::kNearestEven ||
                        mode == sf::Rounding::kNearestAway ||
                        (mode == sf::Rounding::kUp && sign == 0) ||
                        (mode == sf::Rounding::kDown && sign != 0);
    mag = to_inf ? 0x7F80'0000u : kMaxMag;
  }
  return sf::BFloat16{static_cast<std::uint16_t>((sign | mag) >> 16)};
}

sf::Float32 ref_widen_from16(sf::Float16 a) {
  const std::uint32_t sign = a.sign() ? kSign32 : 0;
  const auto be = static_cast<std::uint32_t>(a.biased_exponent());
  const auto frac = static_cast<std::uint32_t>(a.fraction());
  if (be == 0x1F) {  // inf / NaN: payload into the top fraction bits
    std::uint32_t bits = sign | 0x7F80'0000u | (frac << 13);
    if (frac != 0) bits |= kQuiet32;
    return sf::Float32{bits};
  }
  if (be != 0) {  // normal: rebias 15 -> 127
    return sf::Float32{sign | ((be - 15 + 127) << 23) | (frac << 13)};
  }
  if (frac == 0) return sf::Float32{sign};
  // Subnormal: value = frac * 2^-24, normalized in binary32.
  const int top = 31 - std::countl_zero(frac);  // 0..9
  const std::uint32_t mant = (frac ^ (std::uint32_t{1} << top))
                             << (23 - top);
  const auto bexp = static_cast<std::uint32_t>(top - 24 + 127);
  return sf::Float32{sign | (bexp << 23) | mant};
}

sf::Float32 ref_widen_from_bf16(sf::BFloat16 a) {
  std::uint32_t bits = static_cast<std::uint32_t>(a.bits) << 16;
  if (a.is_nan()) bits |= kQuiet32;
  return sf::Float32{bits};
}

// -- Corner-case corpus -----------------------------------------------------

namespace {

// Positive binary32 encodings; the drivers mirror the sign bit. Grouped by
// what they stress. See docs/sweep.md for the rationale per group.
constexpr std::uint32_t kCorner32[] = {
    // Zero and the subnormal border.
    0x0000'0000u,  // +0
    0x0000'0001u,  // min subnormal 2^-149
    0x0000'0002u, 0x0000'0003u,
    0x0000'8000u,               // bfloat16-tie generator in the subnormals
    0x0001'8000u,               // odd-kept-bit bfloat16 tie
    0x003F'FFFFu, 0x0040'0000u,  // mid-subnormal carry edge
    0x007F'FFFEu, 0x007F'FFFFu,  // max subnormal
    0x0080'0000u, 0x0080'0001u,  // min normal 2^-126 and successor
    0x00FF'FFFFu, 0x0100'0000u,  // first binade edge
    // Powers of two across the range (exact sqrt/div scaling, tie
    // generators for div: 2^k / 3, 3 / 2^k land on repeating fractions).
    0x0180'0000u,               // 2^-124
    0x1000'0000u,               // 2^-95
    0x2000'0000u,               // 2^-63
    0x3000'0000u,               // 2^-31
    0x3300'0000u,               // 2^-25 (half of binary16 min subnormal)
    0x3300'0001u,               // just above that half
    0x3380'0000u,               // 2^-24 = binary16 min subnormal
    0x3380'0001u,
    0x3800'0000u,               // 2^-15
    0x3880'0000u,               // 2^-14 = binary16 min normal
    0x387F'C000u,               // binary16 max subnormal, exactly
    0x387F'E000u,               // tie between b16 max subnormal and min normal
    0x3880'1000u,               // b16 normal tie (2^-14 + half b16-ulp)
    0x3880'2000u,               // 2^-14 + one b16-ulp (exact in b16)
    // Around one.
    0x3F7F'FFFEu, 0x3F7F'FFFFu,  // just under 1
    0x3F80'0000u, 0x3F80'0001u, 0x3F80'0002u,
    0x3F80'8000u,               // 1 + 2^-8: bfloat16 tie above 1
    0x3F81'8000u,               // odd-kept-bit bfloat16 tie above 1
    0x3FC0'0000u,               // 1.5
    0x3FFF'FFFFu,               // just under 2
    0x4000'0000u,               // 2
    0x4040'0000u,               // 3 (div ties: x/3 patterns)
    0x4049'0FDBu,               // pi (inexact everything)
    0x40C0'0000u,               // 6
    0x4100'0000u,               // 8
    0x4110'0000u,               // 9 (perfect square)
    0x42C8'0000u,               // 100
    0x447A'0000u,               // 1000
    // Integer-boundary region for round-to-int.
    0x4AFF'FFFFu,               // 8388607.5 (odd .5: ties differ by mode)
    0x4B00'0000u,               // 2^23 (first all-integral binade)
    0x4B00'0001u,
    0x4B7F'FFFFu,
    0x4B80'0000u,               // 2^24
    0x4BFF'FFFFu,
    0x4F00'0000u,               // 2^31
    // binary16 overflow border (narrowing saturation per mode).
    0x477F'E000u,               // 65504 = binary16 max finite
    0x477F'EFFFu,               // below the overflow tie
    0x477F'F000u,               // 65520: the exact b16 overflow tie
    0x477F'F001u,               // just above the tie
    0x4780'0000u,               // 65536 = 2^16
    0x4980'0000u,               // 2^20 (well past b16 range)
    // bfloat16 overflow border.
    0x7F7F'0000u,               // bf16 max finite, widened
    0x7F7F'7FFFu,               // below the bf16 overflow tie
    0x7F7F'8000u,               // the exact bf16 overflow tie
    0x7F7F'8001u,               // just above the tie
    // Large normals and the top binade.
    0x5F80'0000u,               // 2^64
    0x7E80'0000u,               // 2^126
    0x7F00'0000u,               // 2^127
    0x7F7F'FFFEu, 0x7F7F'FFFFu,  // max finite
    // Cancellation halves (fma residue stressors: 1 +/- ulp, 2^24 +/- 1).
    0x4B80'0001u,               // 2^24 + 2
    0x4B7F'FFFEu,               // 2^24 - 2
    0x3F80'0003u,               // 1 + 3 ulp
    0x3E80'0000u,               // 0.25
    0x3EAA'AAABu,               // nearest to 1/3
    0x3E99'999Au,               // nearest to 0.3 (paper's decimal trap)
    0x3DCC'CCCDu,               // nearest to 0.1
    0x4093'4A45u,               // 4.6027 (arbitrary dense pattern)
    0x3C23'D70Au,               // nearest to 0.01
    0x3300'0003u,               // deep subnormal neighbour
    0x0B80'0000u,               // 2^-104 (fma product underflow range)
    0x0B80'0001u,
    0x1780'0000u,               // 2^-80
    0x5A00'0000u,               // 2^53 (double-precision quantum edge)
    0x5A80'0000u,               // 2^54
    // Rounding-boundary quotients: operands whose pairwise quotients land
    // on or next to binary32 rounding boundaries, probing the div/sqrt
    // innocuous-double-rounding exclusion from both sides. Odd integers
    // just above 2^23 divided by the powers of two here produce exact
    // x.5 quotients (real ties); the 4/3 neighbours produce quotients a
    // minimal distance from a tie.
    0x40A0'0000u,               // 5
    0x40E0'0000u,               // 7
    0x4120'0000u,               // 10
    0x4B00'0003u,               // 2^23 + 3 (odd: /2 is an exact .5 tie)
    0x4B00'0005u,               // 2^23 + 5
    0x3FAA'AAAAu, 0x3FAA'AAABu,  // straddling 4/3 (quotient tie probe)
    // Subnormal x subnormal fma operands: products down at 2^-298 that
    // only the widened TwoSum tail can see against a normal addend, and
    // 2^-75-scale values whose squares sit exactly at half the minimum
    // subnormal (the hardest underflow-rounding tie).
    0x0000'0007u, 0x0000'00FFu,  // small subnormals, dense low bits
    0x0012'3456u, 0x0055'5555u,  // patterned subnormal fractions
    0x007F'0000u,               // near-max subnormal, trailing zeros
    0x1A00'0000u,               // 2^-75 (square = 2^-150 = half min sub)
    0x1A00'0001u,               // 2^-75 + ulp (square just above the tie)
    0x1A80'0000u,               // 2^-74
    // narrow16_value boundary neighbourhood: encodings bracketing the
    // binary16 operand-narrowing branch points (half the minimum binary16
    // subnormal, the subnormal-step ties, and the max-subnormal /
    // min-normal border), so a misplaced branch in the value-only
    // narrower shows up as a corpus mismatch.
    0x32FF'FFFFu,               // just below 2^-25 (rounds to 0 or minsub)
    0x33C0'0000u,               // 1.5 * 2^-24: exact b16 subnormal-step tie
    0x33A0'0000u,               // 1.25 * 2^-24 (interior, rounds down)
    0x387F'DFFFu,               // just below the max-sub/min-normal tie
    0x387F'E001u,               // just above that tie
    0x38FF'F000u,               // b16 normal tie just under 2^-13
    0x38FF'E000u,               // exactly representable neighbour below
    // Infinity and NaN payload variants.
    0x7F80'0000u,               // +inf
    0x7F80'0001u,               // sNaN, minimum payload
    0x7FBF'FFFFu,               // sNaN, maximum payload
    0x7FC0'0000u,               // default qNaN
    0x7FC0'0001u,               // qNaN, low payload bit
    0x7FC1'5555u,               // qNaN, patterned payload
    0x7FFF'FFFFu,               // qNaN, maximum payload
};

}  // namespace

std::span<const std::uint32_t> corner32_patterns() { return kCorner32; }

std::size_t corner32_operand_count() {
  return 2 * std::size(kCorner32);  // sign-mirrored; -0 is distinct from +0
}

std::uint32_t ulp_stratified_pattern(sweep_detail::Sm64& g) noexcept {
  const std::uint64_t r = g.next();
  // Exponent band uniform over [0, 254]: band 0 is the subnormals, 254 the
  // top binade; 255 (inf/NaN) is excluded — the corpus covers specials
  // deterministically. The modulo bias (2^41 % 255) is irrelevant for a
  // stress sampler and keeps the draw a single next() call.
  const auto band = static_cast<std::uint32_t>((r >> 23) % 255u);
  const auto frac = static_cast<std::uint32_t>(r & 0x007F'FFFFu);
  const auto sign = static_cast<std::uint32_t>(r >> 63) << 31;
  return sign | (band << 23) | frac;
}

template <int kBits>
typename sf::Float<kBits>::Storage gen_operand(OperandClass cls,
                                               sweep_detail::Sm64& g) noexcept {
  using C = typename sf::Float<kBits>::Constants;
  using S = typename C::Storage;
  const std::uint64_t r = g.next();
  switch (cls) {
    case OperandClass::kNormal: {
      const auto exp = static_cast<S>(
          1 + g.next() % static_cast<std::uint64_t>(C::kExpInfNan - 1));
      S bits = static_cast<S>((static_cast<S>(exp) << C::kSigBits) |
                              (static_cast<S>(r) & C::kFracMask));
      if (r >> 63) bits = static_cast<S>(bits | C::kSignMask);
      return bits;
    }
    case OperandClass::kSubnormal: {
      S frac = static_cast<S>(static_cast<S>(r) & C::kFracMask);
      if (frac == 0) frac = 1;
      return (r >> 63) ? static_cast<S>(frac | C::kSignMask) : frac;
    }
    case OperandClass::kSpecial: {
      static constexpr S kTable[] = {
          S{0},
          C::kSignMask,
          C::kPositiveInfinityBits,
          C::kNegativeInfinityBits,
          C::kDefaultNaNBits,
          static_cast<S>(C::kExpMask | S{1}),  // signaling NaN
          C::kMaxFiniteBits,
          static_cast<S>(C::kMaxFiniteBits | C::kSignMask),
          C::kMinNormalBits,
          static_cast<S>(C::kMinNormalBits | C::kSignMask),
          C::kMinSubnormalBits,
          static_cast<S>(C::kMinSubnormalBits | C::kSignMask),
          static_cast<S>(static_cast<S>(C::kBias) << C::kSigBits),  // 1.0
          static_cast<S>((static_cast<S>(C::kBias) << C::kSigBits) |
                         C::kSignMask),
      };
      return kTable[r % std::size(kTable)];
    }
    case OperandClass::kMixed:
      return static_cast<S>(r);
  }
  return S{0};
}

template std::uint16_t gen_operand<16>(OperandClass,
                                       sweep_detail::Sm64&) noexcept;
template std::uint32_t gen_operand<32>(OperandClass,
                                       sweep_detail::Sm64&) noexcept;
template std::uint64_t gen_operand<64>(OperandClass,
                                       sweep_detail::Sm64&) noexcept;

}  // namespace fpq::parallel::sweep32
