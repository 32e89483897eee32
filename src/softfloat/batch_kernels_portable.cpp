// fpq::softfloat — the portable (plain C++) accelerated batch kernels:
// the per-lane bodies from batch_kernels_impl.hpp in tight branch-light
// loops the compiler can pipeline. The arithmetic kernels are one
// template per op, instantiated for binary16 and binary32 over the shared
// lane bodies (the native double construction of softfloat/fast.hpp).
// This is the path on CPUs without AVX2, the AVX2 kernels' hard lanes
// run the same bodies, and the binary16 kernels serve every accelerated
// variant. Bit- and flag-identical to the scalar batch entry points by
// the arguments laid out in those headers, and proven so by the
// exhaustive sweep32 gates (the binary16 pair rows run these kernels over
// every operand pair, sqrt16 over every encoding),
// tests/softfloat/test_fast32.cpp and
// tests/parallel/test_kernel_dispatch.cpp.
#include "softfloat/batch_kernels.hpp"

#include <bit>
#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"

namespace fpq::softfloat::kernels::portable {

namespace {

/// The arithmetic loop: lane(i, fl) returns lane i's encoding and ORs its
/// flags into fl, under the round-to-nearest pin the native arithmetic
/// needs.
template <int kBits, typename Lane>
void arith_lanes(Float<kBits>* out, unsigned* flags, std::size_t n,
                 Lane lane) noexcept {
  const impl::FenvPin pin;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float<kBits>::from_bits(lane(i, fl));
    flags[i] |= fl;
  }
}

}  // namespace

template <int kBits>
void add(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::add_lane<kBits>(a[i].bits, b[i].bits, false, mode, daz, env,
                                 fl);
  });
}

template <int kBits>
void sub(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::add_lane<kBits>(a[i].bits, b[i].bits, true, mode, daz, env,
                                 fl);
  });
}

template <int kBits>
void mul(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::mul_lane<kBits>(a[i].bits, b[i].bits, mode, daz, env, fl);
  });
}

template <int kBits>
void div(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::div_lane<kBits>(a[i].bits, b[i].bits, mode, daz, env, fl);
  });
}

template <int kBits>
void fma(const Float<kBits>* a, const Float<kBits>* b, const Float<kBits>* c,
         Float<kBits>* out, unsigned* flags, std::size_t n,
         Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::fma_lane<kBits>(a[i].bits, b[i].bits, c[i].bits, mode, daz,
                                 env, fl);
  });
}

template <int kBits>
void sqrt(const Float<kBits>* a, Float<kBits>* out, unsigned* flags,
          std::size_t n, Env& env) noexcept {
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  arith_lanes<kBits>(out, flags, n, [&](std::size_t i, unsigned& fl) {
    return impl::sqrt_lane<kBits>(a[i].bits, mode, daz, env, fl);
  });
}

template void add<16>(const Float16*, const Float16*, Float16*, unsigned*,
                      std::size_t, Env&) noexcept;
template void add<32>(const Float32*, const Float32*, Float32*, unsigned*,
                      std::size_t, Env&) noexcept;
template void sub<16>(const Float16*, const Float16*, Float16*, unsigned*,
                      std::size_t, Env&) noexcept;
template void sub<32>(const Float32*, const Float32*, Float32*, unsigned*,
                      std::size_t, Env&) noexcept;
template void mul<16>(const Float16*, const Float16*, Float16*, unsigned*,
                      std::size_t, Env&) noexcept;
template void mul<32>(const Float32*, const Float32*, Float32*, unsigned*,
                      std::size_t, Env&) noexcept;
template void div<16>(const Float16*, const Float16*, Float16*, unsigned*,
                      std::size_t, Env&) noexcept;
template void div<32>(const Float32*, const Float32*, Float32*, unsigned*,
                      std::size_t, Env&) noexcept;
template void fma<16>(const Float16*, const Float16*, const Float16*,
                      Float16*, unsigned*, std::size_t, Env&) noexcept;
template void fma<32>(const Float32*, const Float32*, const Float32*,
                      Float32*, unsigned*, std::size_t, Env&) noexcept;
template void sqrt<16>(const Float16*, Float16*, unsigned*, std::size_t,
                       Env&) noexcept;
template void sqrt<32>(const Float32*, Float32*, unsigned*, std::size_t,
                       Env&) noexcept;

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

void narrow_double_to_16(const double* in, std::size_t stride, Float16* out,
                         std::size_t n, Env& quiet) noexcept {
  const Rounding mode = quiet.rounding();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = in[i * stride];
    const std::uint64_t xb = std::bit_cast<std::uint64_t>(x);
    const auto be = (xb >> 52) & 0x7FF;
    if ((xb << 1) == 0) {  // signed zero
      out[i] = Float16::zero((xb >> 63) != 0);
    } else if (be == 0 || be == 0x7FF) {
      // Double-subnormal (DAZ acts on the source), infinity or NaN
      // (quieting narrow): the scalar convert, flags discarded.
      out[i] = convert<16>(from_native(x), quiet);
    } else {
      out[i] = fast::encode(fast::narrow16_value(x, mode));
    }
  }
}

}  // namespace fpq::softfloat::kernels::portable
