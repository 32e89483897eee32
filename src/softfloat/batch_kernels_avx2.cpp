// fpq::softfloat — AVX2 lane kernels for the binary32 batch ops that a
// workload runs hot: sqrt (the sqrt sweep), the five arithmetic ops and
// the double -> binary32 operand narrowing (the batched tape). Every other
// op, the converts and round-to-integral included, runs the portable
// kernel under the avx2 variant.
//
// This TU is always part of the build; CMake adds -mavx2 for it alone
// when the compiler supports the flag, and the __AVX2__ guard below
// compiles either the real kernels or forwarders to the portable ones
// (in which case avx2_compiled() reports false and dispatch never
// selects the variant).
//
// Every kernel follows one shape: classify 8 lanes, compute the dominant
// class on binary64 values, 4 per vector, round them to binary32 with the
// masked add the portable kernels use and pack two halves back into 8
// binary32 lanes. Every other lane runs its per-lane body in
// batch_kernels_impl.hpp, byte-identical to the portable variant on the
// hard cases by construction. sqrt and the arithmetic ops patch the hard
// lanes in stack copies before one vector store; the narrowing stores the
// vector and then overwrites its hard lanes.
#include "softfloat/batch_kernels.hpp"

#include <bit>
#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"
#include "softfloat/fast.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace fpq::softfloat::kernels {

bool avx2_compiled() noexcept {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

namespace avx2 {

#if !defined(__AVX2__)

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  portable::sqrt<32>(a, out, flags, n, env);
}
void narrow_double_to_32(const double* in, std::size_t stride, Float32* out,
                         std::size_t n, Env& quiet) noexcept {
  portable::narrow_double_to_32(in, stride, out, n, quiet);
}
void add32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  portable::add<32>(a, b, out, flags, n, env);
}
void sub32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  portable::sub<32>(a, b, out, flags, n, env);
}
void mul32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  portable::mul<32>(a, b, out, flags, n, env);
}
void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  portable::div<32>(a, b, out, flags, n, env);
}
void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  portable::fma<32>(a, b, c, out, flags, n, env);
}

#else  // __AVX2__

namespace {

constexpr std::size_t kW = 8;  // lanes per iteration

inline unsigned mask_bits(__m256i m) noexcept {
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

/// Lanes where rounding away lands on infinity (round_pack's overflow
/// policy) under `mode`, given the negative-lane mask.
inline __m256i to_inf_epi32(Rounding mode, __m256i neg) noexcept {
  const __m256i ones = _mm256_set1_epi32(-1);
  switch (mode) {
    case Rounding::kNearestEven:
    case Rounding::kNearestAway:
      return ones;
    case Rounding::kTowardZero:
      return _mm256_setzero_si256();
    case Rounding::kUp:
      return _mm256_andnot_si256(neg, ones);
    case Rounding::kDown:
      return neg;
  }
  return _mm256_setzero_si256();
}

inline __m256i select_epi32(__m256i mask, __m256i yes, __m256i no) noexcept {
  return _mm256_blendv_epi8(no, yes, mask);
}

/// Unsigned m <= bound for sign-cleared magnitudes (all values fit in 31
/// bits, so signed compares are safe everywhere in this file).
inline __m256i le_epi32(__m256i m, int bound) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(bound + 1), m);
}
inline __m256i ge_epi32(__m256i m, int bound) noexcept {
  return _mm256_cmpgt_epi32(m, _mm256_set1_epi32(bound - 1));
}

// -- binary32 values in binary64 lanes ---------------------------------------
//
// sqrt, the binary ops and the operand narrowing compute on 4 binary64
// values per vector and all end in the same step: round a binary64 bit
// pattern to binary32 by the masked add at q = 29 (fold<32>'s normal branch
// and narrow_64_to_32_lane's). Each 4-lane half is rounded in 64-bit
// lanes, then two halves are packed into one 8-lane binary32 vector for
// round_pack's overflow select.

constexpr long long kSign64 = static_cast<long long>(0x8000000000000000ull);
/// Magnitude bits of 2^-126, the smallest binary32 normal, as a double.
constexpr long long kMinNormal32Mag = static_cast<long long>(897ull << 52);

/// The low 32 bits of each 64-bit lane of `lo` (lanes 0-3) and `hi`
/// (lanes 4-7) as one 8-lane vector.
inline __m256i pack_lo32(__m256i lo, __m256i hi) noexcept {
  const __m256 s = _mm256_shuffle_ps(_mm256_castsi256_ps(lo),
                                     _mm256_castsi256_ps(hi),
                                     _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permute4x64_epi64(_mm256_castps_si256(s),
                                  _MM_SHUFFLE(3, 1, 2, 0));
}

/// Rounds 4 binary64 patterns to binary32 under `mode` with the masked
/// add at q = 29. `val` gets the sign and rounded encoding in its low 32
/// bits (the encoding is meaningful only where `ovf` is clear, the sign
/// always), `ovf` marks results above
/// binary32 max finite, `inexact` marks nonzero discarded bits. Valid for
/// normal doubles of magnitude >= 2^-126; callers mask everything else.
inline void round29(__m256i rb, Rounding mode, __m256i& val, __m256i& ovf,
                    __m256i& inexact) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i mag = _mm256_andnot_si256(_mm256_set1_epi64x(kSign64), rb);
  const __m256i neg = _mm256_cmpgt_epi64(zero, rb);
  const __m256i low = _mm256_set1_epi64x(0x1FFFFFFFll);
  __m256i bias;
  switch (mode) {
    case Rounding::kNearestEven:
      bias = _mm256_add_epi64(
          _mm256_set1_epi64x(0x0FFFFFFFll),
          _mm256_and_si256(_mm256_srli_epi64(mag, 29),
                           _mm256_set1_epi64x(1)));
      break;
    case Rounding::kNearestAway:
      bias = _mm256_set1_epi64x(0x10000000ll);
      break;
    case Rounding::kUp:
      bias = _mm256_andnot_si256(neg, low);
      break;
    case Rounding::kDown:
      bias = _mm256_and_si256(neg, low);
      break;
    default:  // kTowardZero
      bias = zero;
      break;
  }
  const __m256i rounded =
      _mm256_andnot_si256(low, _mm256_add_epi64(mag, bias));
  ovf = _mm256_cmpgt_epi64(
      rounded, _mm256_set1_epi64x(static_cast<long long>(fast::kMaxMag<32>)));
  inexact = _mm256_xor_si256(
      _mm256_cmpeq_epi64(_mm256_and_si256(mag, low), zero),
      _mm256_set1_epi64x(-1));
  // The encoding bits are masked to 31 so an overflowed lane's garbage
  // cannot reach the sign, which overflow_select reads.
  val = _mm256_or_si256(
      _mm256_and_si256(
          _mm256_sub_epi64(_mm256_srli_epi64(rounded, 29),
                           _mm256_set1_epi64x(static_cast<long long>(
                               std::uint64_t{896} << 23))),
          _mm256_set1_epi64x(0x7FFFFFFFll)),
      _mm256_and_si256(_mm256_srli_epi64(rb, 32),
                       _mm256_set1_epi64x(0x80000000ll)));
}

/// round_pack's overflow policy on 8 packed lanes: overflowed lanes
/// become infinity or max finite (by mode and sign), the rest keep `val`.
inline __m256i overflow_select(__m256i val, __m256i ovf,
                               Rounding mode) noexcept {
  const __m256i sign =
      _mm256_and_si256(val, _mm256_set1_epi32(static_cast<int>(impl::kSign32)));
  const __m256i ovf_val = _mm256_or_si256(
      sign, select_epi32(to_inf_epi32(mode, _mm256_srai_epi32(val, 31)),
                         _mm256_set1_epi32(static_cast<int>(impl::kInf32)),
                         _mm256_set1_epi32(
                             static_cast<int>(impl::kInf32 - 1))));
  return select_epi32(ovf, ovf_val, val);
}

/// Exact widening of 4 binary32 encodings that are normal or zero.
inline __m256d widen_pd(__m128i lane4) noexcept {
  const __m256i x = _mm256_cvtepu32_epi64(lane4);
  const __m256i sign = _mm256_and_si256(_mm256_slli_epi64(x, 32),
                                        _mm256_set1_epi64x(kSign64));
  const __m256i m = _mm256_and_si256(x, _mm256_set1_epi64x(0x7FFFFFFFll));
  const __m256i w = _mm256_add_epi64(
      _mm256_slli_epi64(m, 29),
      _mm256_set1_epi64x(static_cast<long long>(std::uint64_t{896} << 52)));
  const __m256i is_zero = _mm256_cmpeq_epi64(m, _mm256_setzero_si256());
  return _mm256_castsi256_pd(
      _mm256_or_si256(sign, _mm256_andnot_si256(is_zero, w)));
}

/// fast::add_round_odd on 4 lanes: TwoSum, then the odd-lsb step toward
/// the error's sign when the sum was inexact and its lsb even.
inline __m256d add_round_odd_pd(__m256d a, __m256d b) noexcept {
  const __m256d s = _mm256_add_pd(a, b);
  const __m256d bb = _mm256_sub_pd(s, a);
  const __m256d err = _mm256_add_pd(_mm256_sub_pd(a, _mm256_sub_pd(s, bb)),
                                    _mm256_sub_pd(b, bb));
  const __m256i sb = _mm256_castpd_si256(s);
  const __m256i eb = _mm256_castpd_si256(err);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i odd_step = _mm256_and_si256(
      _mm256_castpd_si256(_mm256_cmp_pd(err, _mm256_setzero_pd(),
                                        _CMP_NEQ_OQ)),
      _mm256_cmpeq_epi64(_mm256_and_si256(sb, _mm256_set1_epi64x(1)), zero));
  // +1 ulp when err and s share a sign (away from zero), else -1.
  const __m256i step = _mm256_or_si256(
      _mm256_cmpgt_epi64(zero, _mm256_xor_si256(sb, eb)),
      _mm256_set1_epi64x(1));
  return _mm256_castsi256_pd(
      _mm256_add_epi64(sb, _mm256_and_si256(odd_step, step)));
}

/// Normal-or-zero binary32 lanes: the operand class the binary-op
/// kernels run in-vector.
inline __m256i normal_or_zero(__m256i v) noexcept {
  const __m256i m = _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
  return _mm256_or_si256(
      _mm256_cmpeq_epi32(m, _mm256_setzero_si256()),
      _mm256_and_si256(ge_epi32(m, 0x00800000),
                       le_epi32(m, static_cast<int>(impl::kInf32) - 1)));
}

enum class BinOp { kAdd, kSub, kMul, kDiv, kFma };

/// The op's binary64 value on easy lanes, as the lane bodies compute it:
/// exact (mul), round-to-odd compressed (add/sub/fma) or correctly
/// rounded (div). Separate multiply and add: nothing is contracted.
template <BinOp kOp>
inline __m256d op_pd(__m256d a, __m256d b, __m256d c) noexcept {
  if constexpr (kOp == BinOp::kAdd) {
    return add_round_odd_pd(a, b);
  } else if constexpr (kOp == BinOp::kSub) {
    return add_round_odd_pd(a, _mm256_xor_pd(b, _mm256_set1_pd(-0.0)));
  } else if constexpr (kOp == BinOp::kMul) {
    return _mm256_mul_pd(a, b);
  } else if constexpr (kOp == BinOp::kDiv) {
    return _mm256_div_pd(a, b);
  } else {
    return add_round_odd_pd(_mm256_mul_pd(a, b), c);
  }
}

/// The shared loop of the binary-op kernels. Easy lanes (finite
/// normal-or-zero operands, a nonzero divisor, and a result of magnitude
/// >= 2^-126) run 8 at a time as two 4-double halves; every other lane,
/// and the n % 8 tail, runs `lane(a, b, c, flags)` — the op's impl:: body,
/// the one the portable kernel runs — on its operand bits as loaded, so an
/// output aliasing an input cannot clobber them. Hard lanes' operands are
/// replaced by 1.0 for the vector op, so it never computes on NaN,
/// infinity or a zero divisor.
template <BinOp kOp, typename Lane>
void binary32(const Float32* a, const Float32* b, const Float32* c,
              Float32* out, unsigned* flags, std::size_t n, Rounding mode,
              Lane lane) noexcept {
  constexpr bool kTernary = kOp == BinOp::kFma;
  const auto* pa = reinterpret_cast<const std::uint32_t*>(a);
  const auto* pb = reinterpret_cast<const std::uint32_t*>(b);
  const auto* pc = reinterpret_cast<const std::uint32_t*>(c);
  const __m256i one = _mm256_set1_epi32(0x3F800000);
  alignas(32) std::uint32_t xa[kW];
  alignas(32) std::uint32_t xb[kW];
  alignas(32) std::uint32_t xc[kW];
  alignas(32) std::uint32_t ro[kW];
  alignas(32) unsigned fo[kW];
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256i a8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
    const __m256i b8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + i));
    __m256i c8 = one;
    __m256i easy = _mm256_and_si256(normal_or_zero(a8), normal_or_zero(b8));
    if constexpr (kTernary) {
      c8 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pc + i));
      easy = _mm256_and_si256(easy, normal_or_zero(c8));
    }
    if constexpr (kOp == BinOp::kDiv) {
      easy = _mm256_andnot_si256(
          _mm256_cmpeq_epi32(
              _mm256_and_si256(b8, _mm256_set1_epi32(0x7FFFFFFF)),
              _mm256_setzero_si256()),
          easy);
    }
    const __m256i va = select_epi32(easy, a8, one);
    const __m256i vb = select_epi32(easy, b8, one);
    const __m256i vc = select_epi32(easy, c8, one);

    __m256i val[2], ovf[2], inexact[2], band[2];
    for (int half = 0; half < 2; ++half) {
      const auto lanes4 = [half](__m256i v) {
        return half == 0 ? _mm256_castsi256_si128(v)
                         : _mm256_extracti128_si256(v, 1);
      };
      const __m256d r = op_pd<kOp>(
          widen_pd(lanes4(va)), widen_pd(lanes4(vb)),
          kTernary ? widen_pd(lanes4(vc)) : _mm256_setzero_pd());
      const __m256i rb = _mm256_castpd_si256(r);
      round29(rb, mode, val[half], ovf[half], inexact[half]);
      // |r| >= 2^-126: nonzero and outside fold<32>'s tiny band.
      band[half] = _mm256_cmpgt_epi64(
          _mm256_andnot_si256(_mm256_set1_epi64x(kSign64), rb),
          _mm256_set1_epi64x(kMinNormal32Mag - 1));
    }
    easy = _mm256_and_si256(easy, pack_lo32(band[0], band[1]));
    const __m256i ovf8 = pack_lo32(ovf[0], ovf[1]);
    __m256i fl = _mm256_and_si256(
        easy, select_epi32(ovf8,
                           _mm256_set1_epi32(kFlagOverflow | kFlagInexact),
                           _mm256_and_si256(pack_lo32(inexact[0], inexact[1]),
                                            _mm256_set1_epi32(kFlagInexact))));
    __m256i res = overflow_select(pack_lo32(val[0], val[1]), ovf8, mode);
    if (const unsigned hard = mask_bits(easy) ^ 0xFFu; hard != 0) {
      // Patch the hard lanes in stack copies and reload them, so the
      // output is written by one vector store either way.
      _mm256_store_si256(reinterpret_cast<__m256i*>(xa), a8);
      _mm256_store_si256(reinterpret_cast<__m256i*>(xb), b8);
      _mm256_store_si256(reinterpret_cast<__m256i*>(xc), c8);
      _mm256_store_si256(reinterpret_cast<__m256i*>(ro), res);
      _mm256_store_si256(reinterpret_cast<__m256i*>(fo), fl);
      for (unsigned h = hard; h != 0; h &= h - 1) {
        const auto j = static_cast<std::size_t>(std::countr_zero(h));
        ro[j] = lane(xa[j], xb[j], xc[j], fo[j]);
      }
      res = _mm256_load_si256(reinterpret_cast<const __m256i*>(ro));
      fl = _mm256_load_si256(reinterpret_cast<const __m256i*>(fo));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), res);
    auto* fp = reinterpret_cast<__m256i*>(flags + i);
    _mm256_storeu_si256(fp, _mm256_or_si256(_mm256_loadu_si256(fp), fl));
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(
        lane(pa[i], pb[i], kTernary ? pc[i] : 0u, f));
    flags[i] |= f;
  }
}

}  // namespace

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  const impl::FenvPin pin;  // _mm256_sqrt_pd honours MXCSR rounding
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const auto* in = reinterpret_cast<const std::uint32_t*>(a);
  std::size_t i = 0;
  alignas(32) std::uint32_t xa[kW];
  alignas(32) std::uint32_t ro[kW];
  alignas(32) unsigned fo[kW];
  for (; i + kW <= n; i += kW) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i m =
        _mm256_and_si256(v, _mm256_set1_epi32(0x7FFFFFFF));
    const __m256i neg = _mm256_srai_epi32(v, 31);
    // Dominant class: positive normal operands. Everything else
    // (negatives, zeros, subnormals, inf, NaN) goes scalar — those
    // lanes are branch-trivial there.
    const __m256i easy = _mm256_andnot_si256(
        neg, _mm256_and_si256(
                 ge_epi32(m, 0x00800000),
                 le_epi32(m, static_cast<int>(impl::kInf32) - 1)));
    __m256i val[2], ovf[2], inexact[2];
    for (int half = 0; half < 2; ++half) {
      const __m128i lane4 = half == 0 ? _mm256_castsi256_si128(m)
                                      : _mm256_extracti128_si256(m, 1);
      // Exact widen of a positive normal binary32 to binary64 bits.
      const __m256i d = _mm256_add_epi64(
          _mm256_slli_epi64(_mm256_cvtepu32_epi64(lane4), 29),
          _mm256_set1_epi64x(
              static_cast<long long>(std::uint64_t{896} << 52)));
      // Correctly rounded under the pinned round-to-nearest; the extra
      // binary64 rounding is innocuous (see batch_kernels_impl.hpp). The
      // root of a normal is in [2^-63, 2^64): never tiny or overflowing.
      round29(_mm256_castpd_si256(_mm256_sqrt_pd(_mm256_castsi256_pd(d))),
              mode, val[half], ovf[half], inexact[half]);
    }
    __m256i res = pack_lo32(val[0], val[1]);
    __m256i fl = _mm256_and_si256(
        easy, _mm256_and_si256(pack_lo32(inexact[0], inexact[1]),
                               _mm256_set1_epi32(kFlagInexact)));
    if (const unsigned hard = mask_bits(easy) ^ 0xFFu; hard != 0) {
      // As in binary32(): patch stack copies, then one vector store.
      _mm256_store_si256(reinterpret_cast<__m256i*>(xa), v);
      _mm256_store_si256(reinterpret_cast<__m256i*>(ro), res);
      _mm256_store_si256(reinterpret_cast<__m256i*>(fo), fl);
      for (unsigned h = hard; h != 0; h &= h - 1) {
        const auto j = static_cast<std::size_t>(std::countr_zero(h));
        ro[j] = impl::sqrt_lane<32>(xa[j], mode, daz, env, fo[j]);
      }
      res = _mm256_load_si256(reinterpret_cast<const __m256i*>(ro));
      fl = _mm256_load_si256(reinterpret_cast<const __m256i*>(fo));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), res);
    auto* fp = reinterpret_cast<__m256i*>(flags + i);
    _mm256_storeu_si256(fp, _mm256_or_si256(_mm256_loadu_si256(fp), fl));
  }
  for (; i < n; ++i) {
    unsigned f = 0;
    out[i] = Float32::from_bits(
        impl::sqrt_lane<32>(in[i], mode, daz, env, f));
    flags[i] |= f;
  }
}

void add32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  binary32<BinOp::kAdd>(
      a, b, nullptr, out, flags, n, mode,
      [&](std::uint32_t x, std::uint32_t y, std::uint32_t, unsigned& f) {
        return impl::add_lane<32>(x, y, false, mode, daz, env, f);
      });
}

void sub32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  binary32<BinOp::kSub>(
      a, b, nullptr, out, flags, n, mode,
      [&](std::uint32_t x, std::uint32_t y, std::uint32_t, unsigned& f) {
        return impl::add_lane<32>(x, y, true, mode, daz, env, f);
      });
}

void mul32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  binary32<BinOp::kMul>(
      a, b, nullptr, out, flags, n, mode,
      [&](std::uint32_t x, std::uint32_t y, std::uint32_t, unsigned& f) {
        return impl::mul_lane<32>(x, y, mode, daz, env, f);
      });
}

void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  binary32<BinOp::kDiv>(
      a, b, nullptr, out, flags, n, mode,
      [&](std::uint32_t x, std::uint32_t y, std::uint32_t, unsigned& f) {
        return impl::div_lane<32>(x, y, mode, daz, env, f);
      });
}

void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  binary32<BinOp::kFma>(
      a, b, c, out, flags, n, mode,
      [&](std::uint32_t x, std::uint32_t y, std::uint32_t z, unsigned& f) {
        return impl::fma_lane<32>(x, y, z, mode, daz, env, f);
      });
}

void narrow_double_to_32(const double* in, std::size_t stride, Float32* out,
                         std::size_t n, Env& quiet) noexcept {
  const Rounding mode = quiet.rounding();
  unsigned discarded = 0;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const double* p = in + i * stride;
    __m256i val[2], ovf[2], unused[2];
    unsigned easy = 0;
    for (int half = 0; half < 2; ++half) {
      const double* q = p + 4 * half * stride;
      const __m256i x = _mm256_castpd_si256(
          _mm256_setr_pd(q[0], q[stride], q[2 * stride], q[3 * stride]));
      round29(x, mode, val[half], ovf[half], unused[half]);
      // Easy: zeros and finite 2^-126 <= |v|. Zeros keep their sign.
      const __m256i mag =
          _mm256_andnot_si256(_mm256_set1_epi64x(kSign64), x);
      const __m256i is_zero = _mm256_cmpeq_epi64(mag, _mm256_setzero_si256());
      const __m256i band = _mm256_and_si256(
          _mm256_cmpgt_epi64(mag, _mm256_set1_epi64x(kMinNormal32Mag - 1)),
          _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(
                                 fast::kExpMask64)),
                             mag));
      val[half] = _mm256_blendv_epi8(
          val[half],
          _mm256_and_si256(_mm256_srli_epi64(x, 32),
                           _mm256_set1_epi64x(0x80000000ll)),
          is_zero);
      easy |= static_cast<unsigned>(_mm256_movemask_pd(
                  _mm256_castsi256_pd(_mm256_or_si256(band, is_zero))))
              << (4 * half);
    }
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        overflow_select(pack_lo32(val[0], val[1]), pack_lo32(ovf[0], ovf[1]),
                        mode));
    for (unsigned h = easy ^ 0xFFu; h != 0; h &= h - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(h));
      out[i + j] = Float32::from_bits(impl::narrow_64_to_32_lane(
          std::bit_cast<std::uint64_t>(p[j * stride]), mode, quiet,
          discarded));
    }
  }
  for (; i < n; ++i) {
    out[i] = Float32::from_bits(impl::narrow_64_to_32_lane(
        std::bit_cast<std::uint64_t>(in[i * stride]), mode, quiet,
        discarded));
  }
}

#endif  // __AVX2__

}  // namespace avx2

}  // namespace fpq::softfloat::kernels
