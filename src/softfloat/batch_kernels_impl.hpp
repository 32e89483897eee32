// fpq::softfloat — shared per-lane bodies for the accelerated batch
// kernels. The portable kernels are straight loops over these; the AVX2
// kernels vectorize the common classes and drop any remaining lane here,
// which is what makes the two variants identical by construction on the
// hard cases (NaN payloads, subnormal-result bands, FTZ).
//
// Every helper takes the batch Env both as the source of truth it was
// configured from (mode / daz / ftz are hoisted by the caller) and as
// scratch for the scalar-fallback lanes (scalar_lane), honouring the
// batch contract that the Env's sticky flags are clobbered. Flags are
// OR-ed into `fl`.
//
// Rounding in the common classes is one masked integer add on the
// encoding (the fast::narrow16_value construction): consecutive
// in-format values are a fixed encoding step apart and the carry out of
// the fraction walks binades correctly, so adding a mode-dependent bias
// below the first kept bit and masking rounds in all five modes; the
// kept lsb supplies ties-to-even parity. Each helper's class boundaries
// route every case with payload semantics, and every case with
// tininess-after-rounding except fold's tiny band (fold_tiny), to the
// scalar engine instead of reimplementing it.
//
// The arithmetic bodies (add_lane ... sqrt_lane) are one template per
// op for binary16 and binary32: the construction of fast.hpp, whose
// preconditions are asserted per format there.
//
// Internal header: included only by batch_kernels_portable.cpp and
// batch_kernels_avx2.cpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>

#include "softfloat/env.hpp"
#include "softfloat/fast.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat::kernels::impl {

inline constexpr std::uint32_t kSign32 = 0x80000000u;
inline constexpr std::uint32_t kInf32 = 0x7F800000u;

/// The encoding type of format kBits.
template <int kBits>
using Bits = typename FormatConstants<kBits>::Storage;

/// Pins the host FPU to round-to-nearest for the duration of a kernel
/// that runs native double arithmetic (the arithmetic lanes, sqrt
/// included), and restores the caller's whole fenv — including exception
/// flags, so kernels never leak host flags — on exit. Integer-only
/// kernels don't need one.
class FenvPin {
 public:
  FenvPin() noexcept {
    std::fegetenv(&saved_);
    std::fesetround(FE_TONEAREST);
  }
  ~FenvPin() { std::fesetenv(&saved_); }
  FenvPin(const FenvPin&) = delete;
  FenvPin& operator=(const FenvPin&) = delete;

 private:
  std::fenv_t saved_;
};

/// One lane on the scalar engine: `op(env)` with the Env's sticky flags
/// as scratch, its flags OR-ed into `fl`; returns the result encoding.
template <typename Op>
inline auto scalar_lane(Env& env, unsigned& fl, Op op) noexcept {
  env.clear_flags();
  const auto r = op(env);
  fl |= env.flags();
  return r.bits;
}

/// True when rounding away from zero lands on infinity rather than max
/// finite for this mode/sign (round_pack's overflow policy).
inline bool overflows_to_inf(Rounding mode, bool neg) noexcept {
  return mode == Rounding::kNearestEven || mode == Rounding::kNearestAway ||
         (mode == Rounding::kUp && !neg) || (mode == Rounding::kDown && neg);
}

/// The mode-dependent bias added below the first kept bit (bit `q`) of a
/// sign-cleared encoding before masking. `lsb` is the kept lsb for
/// ties-to-even. Directed modes return 0 or the full mask depending on
/// the operand sign.
inline std::uint64_t round_bias(Rounding mode, bool neg, std::uint64_t low,
                                std::uint64_t lsb) noexcept {
  switch (mode) {
    case Rounding::kNearestEven:
      return (low >> 1) + lsb;
    case Rounding::kNearestAway:
      return (low >> 1) + 1;
    case Rounding::kTowardZero:
      return 0;
    case Rounding::kUp:
      return neg ? 0 : low;
    case Rounding::kDown:
      return neg ? low : 0;
  }
  return 0;
}

/// round_pack<kBits> (detail.hpp) on a nonzero normal double v with
/// |v| < 2^emin, without the generic unpack: the result is v rounded onto
/// the subnormal grid (2^kMinSubExp), i.e. v * 2^-kMinSubExp = m * 2^-q
/// for the 53-bit significand m, rounded by the masked add at bit
/// q (>= 54 - p). A q above 63 only ever discards a nonzero remainder
/// below one half, as q = 63 does, so q is clamped there. Tininess is
/// detected after rounding: a value in [2^(emin-1), 2^emin) whose p-bit
/// rounding carries to 2^emin is not tiny. FTZ flushes a nonzero
/// subnormal result to zero, raising underflow and inexact, exactly like
/// round_pack.
template <int kBits>
inline Bits<kBits> fold_tiny(std::uint64_t rb, Rounding mode, bool ftz,
                             unsigned& fl) noexcept {
  using F = fast::FastFormat<kBits>;
  const bool neg = (rb >> 63) != 0;
  const auto e = static_cast<int>((rb >> 52) & 0x7FF) - 1023;  // < emin
  const std::uint64_t m =
      (rb & fast::kFracMask64) | (std::uint64_t{1} << 52);
  const int q = std::min(52 + F::kMinSubExp - e, 63);
  const std::uint64_t low = (std::uint64_t{1} << q) - 1;
  const std::uint64_t kept =
      (m + round_bias(mode, neg, low, (m >> q) & 1)) >> q;
  const auto sign = static_cast<Bits<kBits>>(neg ? F::kSignMask : 0);
  if (ftz && kept != 0 && kept < F::kMinNormalBits) {
    fl |= kFlagUnderflow | kFlagInexact;
    return sign;
  }
  if ((m & low) != 0) {
    constexpr std::uint64_t kLowP = (std::uint64_t{1} << F::kQ) - 1;
    const bool not_tiny =
        e == F::kEmin - 1 &&
        ((m + round_bias(mode, neg, kLowP, (m >> F::kQ) & 1)) >> F::kQ) ==
            (std::uint64_t{1} << F::kPrecision);
    fl |= not_tiny ? kFlagInexact : kFlagInexact | kFlagUnderflow;
  }
  // A kept value of 2^(p-1) packs the smallest normal.
  return static_cast<Bits<kBits>>(sign | kept);
}

/// Folds a nonzero normal double carrying a fast-path result (exact, or
/// round-to-odd compressed, or a correctly-rounded binary64 quotient /
/// root whose double rounding is innocuous — see fast.hpp) into the
/// kBits encoding under `mode`. Magnitudes below 2^emin take fold_tiny,
/// which keeps the scalar engine's exact tininess and FTZ behaviour;
/// everything else is the masked add at q = 53 - p, whose boundary
/// decisions on the compressed value equal those on the exact one.
template <int kBits>
inline Bits<kBits> fold(double v, Rounding mode, bool ftz,
                        unsigned& fl) noexcept {
  using F = fast::FastFormat<kBits>;
  const std::uint64_t rb = std::bit_cast<std::uint64_t>(v);
  std::uint64_t mag = rb & ~(std::uint64_t{1} << 63);
  if (mag < F::kMinNormalMag) return fold_tiny<kBits>(rb, mode, ftz, fl);
  const bool neg = (rb >> 63) != 0;
  constexpr std::uint64_t kLow = (std::uint64_t{1} << F::kQ) - 1;
  const std::uint64_t discarded = mag & kLow;
  mag = (mag + round_bias(mode, neg, kLow, (mag >> F::kQ) & 1)) & ~kLow;
  const auto sign = static_cast<Bits<kBits>>(neg ? F::kSignMask : 0);
  if (mag > F::kMaxMag) {
    fl |= kFlagOverflow | kFlagInexact;
    return static_cast<Bits<kBits>>(
        sign | (overflows_to_inf(mode, neg) ? F::kExpMask : F::kMaxFiniteBits));
  }
  if (discarded != 0) fl |= kFlagInexact;
  return static_cast<Bits<kBits>>(
      sign | ((mag >> F::kQ) - (F::kRebias << F::kSigBits)));
}

// -- Convert / round-to-int lane bodies (pure integer) ----------------------

/// convert<16, 32> for one lane.
inline std::uint16_t narrow_32_to_16_lane(std::uint32_t p, Rounding mode,
                                          bool daz, bool ftz, Env& env,
                                          unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const auto sign = static_cast<std::uint16_t>((p >> 16) & 0x8000u);
  if (m > kInf32) {  // NaN: payload narrowing / sNaN invalid → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<16>(Float32::from_bits(p), e);
    });
  }
  if (m == kInf32) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (m == 0) return sign;
  if (m < 0x00800000u) {  // binary32-subnormal operand
    if (daz) return sign;  // flushed to zero: exact, no flags
    // |v| < 2^-126, far below the binary16 grid: rounds to 0 or the
    // minimum subnormal, tiny and inexact in every mode.
    fl |= kFlagDenormalInput | kFlagUnderflow | kFlagInexact;
    if (ftz) return sign;
    const bool away = (mode == Rounding::kUp && sign == 0) ||
                      (mode == Rounding::kDown && sign != 0);
    return static_cast<std::uint16_t>(sign | (away ? 1u : 0u));
  }
  if (m < 0x33800000u) {  // 0 < |v| < 2^-24: below the whole grid
    fl |= kFlagUnderflow | kFlagInexact;
    if (ftz) return sign;
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:
        away = m > 0x33000000u;  // the 2^-25 tie goes to even zero
        break;
      case Rounding::kNearestAway:
        away = m >= 0x33000000u;
        break;
      case Rounding::kTowardZero:
        break;
      case Rounding::kUp:
        away = sign == 0;
        break;
      case Rounding::kDown:
        away = sign != 0;
        break;
    }
    return static_cast<std::uint16_t>(sign | (away ? 1u : 0u));
  }
  if (m < 0x38800000u) {  // result in the binary16 subnormal band (or
    // rounding up out of it): exact-subnormal flags, tininess after
    // rounding, and FTZ all live in round_pack → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<16>(Float32::from_bits(p), e);
    });
  }
  // Normal-result band: masked add at q = 13 (23 - 10 fraction bits).
  const std::uint32_t low = 0x1FFFu;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> 13) & 1))) &
      ~low;
  if (r > 0x477FE000u) {  // above binary16 max finite (65504)
    fl |= kFlagOverflow | kFlagInexact;
    return static_cast<std::uint16_t>(
        sign | (overflows_to_inf(mode, sign != 0) ? 0x7C00u : 0x7BFFu));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return static_cast<std::uint16_t>(sign | ((r - 0x38000000u) >> 13));
}

/// convert<kBFloat16, 32> for one lane. bfloat16 shares binary32's
/// exponent range, so normal operands can never produce a tiny result
/// (truncating |v| >= 2^-126 onto the coarser grid still lands on
/// >= 2^-126, the shared min normal) and only the subnormal-operand /
/// subnormal-result corner needs the scalar engine.
inline std::uint16_t narrow_32_to_bf16_lane(std::uint32_t p, Rounding mode,
                                            bool daz, Env& env,
                                            unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const auto sign = static_cast<std::uint16_t>((p >> 16) & 0x8000u);
  if (m > kInf32) {  // NaN → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<kBFloat16>(Float32::from_bits(p), e);
    });
  }
  if (m == kInf32) return static_cast<std::uint16_t>(sign | 0x7F80u);
  if (m == 0) return sign;
  if (m < 0x00800000u) {  // subnormal operand
    if (daz) return sign;
    // DE + subnormal result (tininess, FTZ) → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<kBFloat16>(Float32::from_bits(p), e);
    });
  }
  const std::uint32_t low = 0xFFFFu;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> 16) & 1))) &
      ~low;
  if (r > 0x7F7F0000u) {  // above bfloat16 max finite
    fl |= kFlagOverflow | kFlagInexact;
    return static_cast<std::uint16_t>(
        sign | (overflows_to_inf(mode, sign != 0) ? 0x7F80u : 0x7F7Fu));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return static_cast<std::uint16_t>(sign | (r >> 16));
}

/// convert<32, 64> for one lane.
inline std::uint32_t narrow_64_to_32_lane(std::uint64_t p, Rounding mode,
                                          Env& env, unsigned& fl) noexcept {
  const std::uint64_t m = p & ~(std::uint64_t{1} << 63);
  const std::uint32_t sign =
      static_cast<std::uint32_t>(p >> 32) & kSign32;
  if (m > fast::kExpMask64) {  // NaN → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<32>(Float64::from_bits(p), e);
    });
  }
  if (m == fast::kExpMask64) return sign | kInf32;
  if (m == 0) return sign;
  if (m < (std::uint64_t{897} << 52)) {  // |v| < 2^-126: the operand may
    // be a binary64 subnormal (DE/DAZ on the SOURCE format) and the
    // result lands in the binary32 subnormal / underflow band → scalar
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<32>(Float64::from_bits(p), e);
    });
  }
  const std::uint64_t low = 0x1FFFFFFFull;
  const std::uint64_t r =
      (m + round_bias(mode, sign != 0, low, (m >> 29) & 1)) & ~low;
  if (r > fast::kMaxMag<32>) {
    fl |= kFlagOverflow | kFlagInexact;
    return sign | (overflows_to_inf(mode, sign != 0) ? kInf32 : (kInf32 - 1));
  }
  if ((m & low) != 0) fl |= kFlagInexact;
  return sign |
         static_cast<std::uint32_t>((r >> 29) - (std::uint64_t{896} << 23));
}

/// convert<32, 16> for one lane (exact; only NaN payloads go scalar).
inline std::uint32_t widen_16_to_32_lane(std::uint16_t p, bool daz, Env& env,
                                         unsigned& fl) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(p & 0x8000u) << 16;
  const std::uint32_t be = (p >> 10) & 0x1Fu;
  const std::uint32_t frac = p & 0x3FFu;
  if (be == 0x1F) {
    if (frac != 0) {  // NaN → scalar
      return scalar_lane(env, fl, [&](Env& e) {
        return convert<32>(Float16::from_bits(p), e);
      });
    }
    return sign | kInf32;
  }
  if (be != 0) return sign | (((be + 112) << 23) | (frac << 13));
  if (frac == 0) return sign;
  if (daz) return sign;  // flushed operand: exact zero, no flags
  fl |= kFlagDenormalInput;
  // Exact normalization of frac * 2^-24 (result is binary32-normal, so
  // FTZ cannot apply).
  const int top = 31 - std::countl_zero(frac);  // 0..9
  return sign | (static_cast<std::uint32_t>(top + 103) << 23) |
         ((frac ^ (1u << top)) << (23 - top));
}

/// convert<32, kBFloat16> for one lane. The value map is encoding << 16
/// (bfloat16 is binary32's top half), but NaN payloads and non-DAZ
/// subnormal operands (whose exact result is itself subnormal: DE plus
/// possible FTZ flush) go scalar.
inline std::uint32_t widen_bf16_to_32_lane(std::uint16_t p, bool daz,
                                           Env& env, unsigned& fl) noexcept {
  const std::uint32_t be = (p >> 7) & 0xFFu;
  const std::uint32_t frac = p & 0x7Fu;
  if ((be == 0xFF && frac != 0) || (be == 0 && frac != 0 && !daz)) {
    return scalar_lane(env, fl, [&](Env& e) {
      return convert<32>(BFloat16::from_bits(p), e);
    });
  }
  if (be == 0 && frac != 0) {  // daz: flushed to signed zero, no flags
    return static_cast<std::uint32_t>(p & 0x8000u) << 16;
  }
  return static_cast<std::uint32_t>(p) << 16;
}

/// convert<64, 32> for one lane (exact; only NaN payloads go scalar).
inline std::uint64_t widen_32_to_64_lane(std::uint32_t p, bool daz, Env& env,
                                         unsigned& fl) noexcept {
  const std::uint64_t sign = static_cast<std::uint64_t>(p & kSign32) << 32;
  const std::uint32_t be = (p >> 23) & 0xFFu;
  const std::uint32_t frac = p & 0x7FFFFFu;
  if (be == 0xFF) {
    if (frac != 0) {  // NaN → scalar
      return scalar_lane(env, fl, [&](Env& e) {
        return convert<64>(Float32::from_bits(p), e);
      });
    }
    return sign | fast::kExpMask64;
  }
  if (be != 0) {
    return sign | (static_cast<std::uint64_t>(be + 896) << 52) |
           (static_cast<std::uint64_t>(frac) << 29);
  }
  if (frac == 0) return sign;
  if (daz) return sign;
  fl |= kFlagDenormalInput;
  const int top = 31 - std::countl_zero(frac);  // 0..22
  return sign | (static_cast<std::uint64_t>(top + 874) << 52) |
         (static_cast<std::uint64_t>(frac ^ (1u << top)) << (52 - top));
}

/// round_to_integral<32> for one lane.
inline std::uint32_t round_int32_lane(std::uint32_t p, Rounding mode,
                                      bool daz, Env& env,
                                      unsigned& fl) noexcept {
  const std::uint32_t m = p & ~kSign32;
  const std::uint32_t sign = p & kSign32;
  if (m > kInf32) {  // NaN → scalar (payload / sNaN invalid)
    return scalar_lane(env, fl, [&](Env& e) {
      return round_to_integral(Float32::from_bits(p), e);
    });
  }
  // |v| >= 2^23, infinity, and zero are already integral: exact copy.
  if (m >= 0x4B000000u || m == 0) return p;
  if (m < 0x00800000u) {  // subnormal
    if (daz) return sign;  // flushed: zero(sign), NO flags
    fl |= kFlagDenormalInput | kFlagInexact;
    const bool away = (mode == Rounding::kUp && sign == 0) ||
                      (mode == Rounding::kDown && sign != 0);
    return sign | (away ? 0x3F800000u : 0u);
  }
  if (m < 0x3F800000u) {  // 0 < |v| < 1: rounds to 0 or ±1
    fl |= kFlagInexact;
    bool away = false;
    switch (mode) {
      case Rounding::kNearestEven:
        away = m > 0x3F000000u;  // the 0.5 tie goes to even zero
        break;
      case Rounding::kNearestAway:
        away = m >= 0x3F000000u;
        break;
      case Rounding::kTowardZero:
        break;
      case Rounding::kUp:
        away = sign == 0;
        break;
      case Rounding::kDown:
        away = sign != 0;
        break;
    }
    return sign | (away ? 0x3F800000u : 0u);
  }
  // 1 <= |v| < 2^23: masked add at the binade-dependent integer bit.
  const int q = 150 - static_cast<int>(m >> 23);  // 1..23
  const std::uint32_t low = (1u << q) - 1;
  const std::uint32_t r =
      (m + static_cast<std::uint32_t>(
               round_bias(mode, sign != 0, low, (m >> q) & 1))) &
      ~low;
  if ((m & low) != 0) fl |= kFlagInexact;
  return sign | r;
}

// -- Arithmetic lane bodies (binary16 and binary32) -------------------------
//
// Each takes the operand encodings and returns the result encoding. The
// caller pinned the fenv to round-to-nearest. Special operands (NaN,
// infinity, division by zero) take the scalar softfloat operation, which
// keeps NaN payload propagation and invalid / divide-by-zero flags
// canonical; everything else is the fast.hpp construction folded back
// in-format by fold<kBits>.

/// Widens a finite operand: a subnormal is flushed to signed zero under
/// DAZ and raises kFlagDenormalInput into `de` otherwise.
template <int kBits>
inline double operand(Float<kBits> x, bool daz, unsigned& de) noexcept {
  if (x.is_subnormal()) {
    if (daz) return x.sign() ? -0.0 : 0.0;
    de |= kFlagDenormalInput;
  }
  return fast::widen(x);
}

/// add, or sub when `is_sub`, for one lane. Subtraction is addition of
/// the sign-flipped addend (a pure bit operation on the widened value),
/// but the scalar fallback and the exact-zero sign rule see the original
/// operands.
template <int kBits>
inline Bits<kBits> add_lane(Bits<kBits> pa, Bits<kBits> pb, bool is_sub,
                            Rounding mode, bool daz, Env& env,
                            unsigned& fl) noexcept {
  const auto xa = Float<kBits>::from_bits(pa);
  const auto xb = Float<kBits>::from_bits(pb);
  if (!(xa.is_finite() && xb.is_finite())) {
    return scalar_lane(env, fl, [&](Env& e) {
      return is_sub ? softfloat::sub(xa, xb, e) : softfloat::add(xa, xb, e);
    });
  }
  const double av = operand(xa, daz, fl);
  double bv = operand(xb, daz, fl);
  if (is_sub) bv = fast::flip_sign(bv);
  const double ro = fast::add_round_odd(av, bv);
  if (ro == 0.0) {
    const bool sa = std::signbit(av);
    const bool sb = std::signbit(bv);
    const bool zs = (av == 0.0 && bv == 0.0 && sa == sb)
                        ? sa
                        : fast::exact_zero_sign(mode);
    return Float<kBits>::zero(zs).bits;
  }
  return fold<kBits>(ro, mode, env.flush_to_zero(), fl);
}

/// mul for one lane.
template <int kBits>
inline Bits<kBits> mul_lane(Bits<kBits> pa, Bits<kBits> pb, Rounding mode,
                            bool daz, Env& env, unsigned& fl) noexcept {
  const auto xa = Float<kBits>::from_bits(pa);
  const auto xb = Float<kBits>::from_bits(pb);
  if (!(xa.is_finite() && xb.is_finite())) {
    return scalar_lane(env, fl,
                       [&](Env& e) { return softfloat::mul(xa, xb, e); });
  }
  const double av = operand(xa, daz, fl);
  const double bv = operand(xb, daz, fl);
  const double t = av * bv;  // exact: 2p significand bits
  if (t == 0.0) return Float<kBits>::zero(std::signbit(t)).bits;  // XOR sign
  return fold<kBits>(t, mode, env.flush_to_zero(), fl);
}

/// div for one lane.
template <int kBits>
inline Bits<kBits> div_lane(Bits<kBits> pa, Bits<kBits> pb, Rounding mode,
                            bool daz, Env& env, unsigned& fl) noexcept {
  const auto xa = Float<kBits>::from_bits(pa);
  const auto xb = Float<kBits>::from_bits(pb);
  unsigned denormal = 0;
  double av = 0.0;
  double bv = 0.0;
  bool slow = !(xa.is_finite() && xb.is_finite());
  if (!slow) {
    av = operand(xa, daz, denormal);
    bv = operand(xb, daz, denormal);
    slow = bv == 0.0;  // divide-by-zero / 0 over 0: canonical path
  }
  if (slow) {
    return scalar_lane(env, fl,
                       [&](Env& e) { return softfloat::div(xa, xb, e); });
  }
  fl |= denormal;
  if (av == 0.0) {  // exact zero quotient, XOR sign
    return Float<kBits>::zero(std::signbit(av) != std::signbit(bv)).bits;
  }
  // Correctly rounded binary64 quotient; the extra rounding is innocuous
  // and quotients of p-bit values are never rounding-boundary midpoints,
  // so fold's decisions equal the exact quotient's.
  return fold<kBits>(av / bv, mode, env.flush_to_zero(), fl);
}

/// fma for one lane.
template <int kBits>
inline Bits<kBits> fma_lane(Bits<kBits> pa, Bits<kBits> pb, Bits<kBits> pc,
                            Rounding mode, bool daz, Env& env,
                            unsigned& fl) noexcept {
  const auto xa = Float<kBits>::from_bits(pa);
  const auto xb = Float<kBits>::from_bits(pb);
  const auto xc = Float<kBits>::from_bits(pc);
  if (!(xa.is_finite() && xb.is_finite() && xc.is_finite())) {
    return scalar_lane(
        env, fl, [&](Env& e) { return softfloat::fma(xa, xb, xc, e); });
  }
  const double av = operand(xa, daz, fl);
  const double bv = operand(xb, daz, fl);
  const double cv = operand(xc, daz, fl);
  const double t = av * bv;  // exact product
  const double ro = fast::add_round_odd(t, cv);
  if (ro == 0.0) {  // exact zero: a nonzero t + cv is a normal double
    const bool psign = std::signbit(av) != std::signbit(bv);
    const bool zs = ((av == 0.0 || bv == 0.0) && cv == 0.0 &&
                     psign == std::signbit(cv))
                        ? psign
                        : fast::exact_zero_sign(mode);
    return Float<kBits>::zero(zs).bits;
  }
  return fold<kBits>(ro, mode, env.flush_to_zero(), fl);
}

/// sqrt for one lane.
template <int kBits>
inline Bits<kBits> sqrt_lane(Bits<kBits> p, Rounding mode, bool daz,
                             Env& env, unsigned& fl) noexcept {
  const auto x = Float<kBits>::from_bits(p);
  if (x.is_nan()) {
    return scalar_lane(env, fl, [&](Env& e) { return softfloat::sqrt(x, e); });
  }
  if (x.is_zero()) return p;  // sqrt(±0) = ±0, exact
  if (x.sign()) {
    // Negative nonzero (including -inf and negative subnormals even
    // under DAZ: the scalar op checks the sign before unpacking).
    fl |= kFlagInvalid;
    return Float<kBits>::quiet_nan().bits;
  }
  if (x.is_infinity()) return p;  // sqrt(+inf) = +inf
  const double v = operand(x, daz, fl);
  if (v == 0.0) return 0;  // DAZ-flushed operand: sqrt(+0) = +0
  // Correctly rounded binary64 root: the extra rounding is innocuous, and
  // the root is normal in the format and never overflows, so fold's
  // masked add both rounds and detects inexactness.
  return fold<kBits>(std::sqrt(v), mode, env.flush_to_zero(), fl);
}

}  // namespace fpq::softfloat::kernels::impl
