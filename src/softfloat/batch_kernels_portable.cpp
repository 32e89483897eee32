// fpq::softfloat — the portable (plain C++) accelerated batch kernels:
// per-lane bodies from batch_kernels_impl.hpp in tight branch-light
// loops the compiler can pipeline, plus the fast32 native arithmetic
// loops (softfloat/fast32.hpp) for the binary ops. Bit- and
// flag-identical to the scalar batch entry points by the arguments laid
// out in those two headers, and proven so by the exhaustive sweep32
// gates and tests/softfloat/test_fast32.cpp.
#include "softfloat/batch_kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"
#include "softfloat/fast32.hpp"

namespace fpq::softfloat::kernels::portable {

namespace f32 = fpq::softfloat::fast32;

namespace {

/// Shared add/sub loop: subtraction is addition of the sign-flipped
/// addend (a pure bit operation on the widened value), but fallback
/// lanes and the exact-zero sign rule see the original operands.
template <bool kIsSub>
void addsub32(const Float32* a, const Float32* b, Float32* out,
              unsigned* flags, std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    const Float32 xa = a[i];
    const Float32 xb = b[i];
    if (!(xa.is_finite() && xb.is_finite())) {
      env.clear_flags();
      out[i] = kIsSub ? sub(xa, xb, env) : add(xa, xb, env);
      flags[i] |= env.flags();
      continue;
    }
    unsigned fl = 0;
    double av = f32::widen(xa);
    double bv = f32::widen(xb);
    if (daz) {
      av = f32::daz32(av);
      bv = f32::daz32(bv);
    } else if (f32::is_subnormal32(av) || f32::is_subnormal32(bv)) {
      fl = kFlagDenormalInput;
    }
    if (kIsSub) bv = f32::flip_sign(bv);
    const double ro = f32::add_round_odd(av, bv);
    if (ro == 0.0) {
      const bool sa = std::signbit(av);
      const bool sb = std::signbit(bv);
      const bool zs = (av == 0.0 && bv == 0.0 && sa == sb)
                          ? sa
                          : f32::exact_zero_sign(mode);
      out[i] = Float32::zero(zs);
      flags[i] |= fl;
      continue;
    }
    out[i] = Float32::from_bits(impl::fold32(ro, mode, env, fl));
    flags[i] |= fl;
  }
}

}  // namespace

void add32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  addsub32<false>(a, b, out, flags, n, env);
}

void sub32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  addsub32<true>(a, b, out, flags, n, env);
}

void mul32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    const Float32 xa = a[i];
    const Float32 xb = b[i];
    if (!(xa.is_finite() && xb.is_finite())) {
      env.clear_flags();
      out[i] = mul(xa, xb, env);
      flags[i] |= env.flags();
      continue;
    }
    unsigned fl = 0;
    double av = f32::widen(xa);
    double bv = f32::widen(xb);
    if (daz) {
      av = f32::daz32(av);
      bv = f32::daz32(bv);
    } else if (f32::is_subnormal32(av) || f32::is_subnormal32(bv)) {
      fl = kFlagDenormalInput;
    }
    const double t = av * bv;  // exact: 24+24 significand bits
    if (t == 0.0) {            // sign is the XOR the standard wants
      out[i] = Float32::zero(std::signbit(t));
      flags[i] |= fl;
      continue;
    }
    out[i] = Float32::from_bits(impl::fold32(t, mode, env, fl));
    flags[i] |= fl;
  }
}

void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    const Float32 xa = a[i];
    const Float32 xb = b[i];
    unsigned fl = 0;
    double av = 0.0;
    double bv = 0.0;
    bool slow = !(xa.is_finite() && xb.is_finite());
    if (!slow) {
      av = f32::widen(xa);
      bv = f32::widen(xb);
      if (daz) {
        av = f32::daz32(av);
        bv = f32::daz32(bv);
      } else if (f32::is_subnormal32(av) || f32::is_subnormal32(bv)) {
        fl = kFlagDenormalInput;
      }
      slow = bv == 0.0;  // divide-by-zero / 0 over 0: canonical path
    }
    if (slow) {
      env.clear_flags();
      out[i] = div(xa, xb, env);
      flags[i] |= env.flags();
      continue;
    }
    if (av == 0.0) {  // exact zero quotient, XOR sign
      out[i] = Float32::zero(std::signbit(av) != std::signbit(bv));
      flags[i] |= fl;
      continue;
    }
    // Correctly rounded binary64 quotient; the extra rounding is
    // innocuous (53 >= 2*24 + 2) and quotients of binary32 values are
    // never rounding-boundary midpoints, so fold32's decisions equal the
    // exact quotient's.
    const double q = av / bv;
    out[i] = Float32::from_bits(impl::fold32(q, mode, env, fl));
    flags[i] |= fl;
  }
}

void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    const Float32 xa = a[i];
    const Float32 xb = b[i];
    const Float32 xc = c[i];
    if (!(xa.is_finite() && xb.is_finite() && xc.is_finite())) {
      env.clear_flags();
      out[i] = fma(xa, xb, xc, env);
      flags[i] |= env.flags();
      continue;
    }
    unsigned fl = 0;
    double av = f32::widen(xa);
    double bv = f32::widen(xb);
    double cv = f32::widen(xc);
    if (daz) {
      av = f32::daz32(av);
      bv = f32::daz32(bv);
      cv = f32::daz32(cv);
    } else if (f32::is_subnormal32(av) || f32::is_subnormal32(bv) ||
               f32::is_subnormal32(cv)) {
      fl = kFlagDenormalInput;
    }
    const double t = av * bv;  // exact product
    const double ro = f32::add_round_odd(t, cv);
    if (ro == 0.0) {  // exact zero: |t + cv| >= 2^-298 when nonzero
      const bool psign = std::signbit(av) != std::signbit(bv);
      const bool zs = ((av == 0.0 || bv == 0.0) && cv == 0.0 &&
                       psign == std::signbit(cv))
                          ? psign
                          : f32::exact_zero_sign(mode);
      out[i] = Float32::zero(zs);
      flags[i] |= fl;
      continue;
    }
    out[i] = Float32::from_bits(impl::fold32(ro, mode, env, fl));
    flags[i] |= fl;
  }
}

void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::sqrt32_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void round_int32(const Float32* a, Float32* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::round_int32_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_32_to_16(const Float32* a, Float16* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  const bool ftz = env.flush_to_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float16::from_bits(
        impl::narrow_32_to_16_lane(a[i].bits, mode, daz, ftz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_32_to_bf16(const Float32* a, BFloat16* out, unsigned* flags,
                       std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = BFloat16::from_bits(
        impl::narrow_32_to_bf16_lane(a[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void narrow_64_to_32(const Float64* a, Float32* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::narrow_64_to_32_lane(a[i].bits, mode, env, fl));
    flags[i] |= fl;
  }
}

void narrow_double_to_32(const double* in, std::size_t stride, Float32* out,
                         std::size_t n, Env& quiet) noexcept {
  const Rounding mode = quiet.rounding();
  unsigned discarded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Float32::from_bits(impl::narrow_64_to_32_lane(
        std::bit_cast<std::uint64_t>(in[i * stride]), mode, quiet,
        discarded));
  }
}

void widen_16_to_32(const Float16* a, Float32* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::widen_16_to_32_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

void widen_bf16_to_32(const BFloat16* a, Float32* out, unsigned* flags,
                      std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::widen_bf16_to_32_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

void widen_32_to_64(const Float32* a, Float64* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float64::from_bits(
        impl::widen_32_to_64_lane(a[i].bits, daz, env, fl));
    flags[i] |= fl;
  }
}

}  // namespace fpq::softfloat::kernels::portable
