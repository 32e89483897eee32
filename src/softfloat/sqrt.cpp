// Square root with correct rounding: classic restoring (digit-by-digit)
// integer square root over a 128-bit radicand; the remainder supplies the
// sticky bit. sqrt is correctly rounded in IEEE 754 just like the four
// basic operations, which surprises many developers.
//
// Only the root bits the format keeps are computed: kPrecision + 3
// iterations (27 for binary32, 14 for binary16, 11 for bfloat16 and 56 for
// binary64), not the 64 a full 64-bit root takes. That is enough because:
//  * the radicand lies in [2^125, 2^127), so its k-iteration root
//    floor(sqrt(radicand) / 2^(64-k)) has its leading one at bit k-1 or
//    k-2: at least k-1 = p+2 significant bits, the p kept ones, the round
//    bit and one more;
//  * sqrt never overflows or underflows (the root of a finite positive
//    value of any of these formats is normal in it), so round_pack always
//    rounds at precision p and needs nothing below the round bit except
//    the sticky bit;
//  * the sticky bit is exact: it is set when the remainder or any radicand
//    bit the iterations did not consume is nonzero, i.e. iff
//    sqrt(radicand) is not a multiple of 2^(64-k). (The radicand's p
//    significant bits all lie in the 2k consumed ones, so here only the
//    remainder can set it; the other term keeps isqrt_top right for any
//    radicand.)
// The root's weight moves up by 64-k bits, which the exponent absorbs.
// SqrtExhaustive.* checks this against the 53-bit references for every
// binary32 fraction at both exponent parities and for all bfloat16
// encodings, in all five modes.

#include "softfloat/detail.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat {

namespace {

using detail::U128;

// floor(sqrt(x) / 2^(64-kIterations)): the top kIterations bits of the
// 64-bit root of a 128-bit radicand. Sets `exact` iff that quotient is
// exact (remainder and unconsumed radicand bits all zero). Restoring
// method, two radicand bits per iteration; the remainder stays below
// 2^(kIterations+3), so it fits in 64 bits. Each root bit is a data
// dependent coin flip, so the restore step is a select, not a branch.
template <int kIterations>
std::uint64_t isqrt_top(U128 x, bool& exact) noexcept {
  static_assert(kIterations >= 1 && kIterations <= 61);
  std::uint64_t rem = 0;
  std::uint64_t root = 0;
  for (int i = 0; i < kIterations; ++i) {
    rem = (rem << 2) | static_cast<std::uint64_t>(x >> 126);
    x <<= 2;
    const std::uint64_t trial = (root << 2) | 1;
    const bool take = rem >= trial;
    rem = take ? rem - trial : rem;
    root = (root << 1) | std::uint64_t{take};
  }
  exact = rem == 0 && x == 0;
  return root;
}

}  // namespace

template <int kBits>
Float<kBits> sqrt(Float<kBits> a, Env& env) noexcept {
  if (a.is_nan()) return detail::propagate_nan(a, a, env);
  if (a.is_zero()) return a;  // sqrt(±0) = ±0 per the standard
  if (a.sign()) return detail::invalid_result<kBits>(env);
  if (a.is_infinity()) return a;

  const detail::Unpacked u = detail::unpack_finite(a, env);
  if (u.sig == 0) return Float<kBits>::zero(false);  // DAZ-flushed input

  // Shift so the radicand exponent is even:
  //   value = sig * 2^(e-63) = (sig << s) * 2^(e-63-s), e-63-s even.
  const int s = ((u.exp & 1) == 0) ? 63 : 62;
  const U128 radicand = U128{u.sig} << s;
  constexpr int kIterations = FormatConstants<kBits>::kPrecision + 3;
  bool exact = false;
  const std::uint64_t root = isqrt_top<kIterations>(radicand, exact);
  // value = root * 2^(64-k) * 2^((e-63-s)/2); helper scaling
  // E - 127 = (e-63-s)/2 + 64 - k.
  const std::int32_t e = (u.exp - 63 - s) / 2 + 127 + (64 - kIterations);
  return detail::normalize_round_pack<kBits>(false, e, U128{root}, !exact,
                                             env);
}

template Float16 sqrt<16>(Float16, Env&) noexcept;
template Float32 sqrt<32>(Float32, Env&) noexcept;
template Float64 sqrt<64>(Float64, Env&) noexcept;
template BFloat16 sqrt<kBFloat16>(BFloat16, Env&) noexcept;

}  // namespace fpq::softfloat
