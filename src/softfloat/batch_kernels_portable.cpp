// fpq::softfloat — the portable (plain C++) accelerated batch kernels:
// the per-lane bodies from batch_kernels_impl.hpp (the fast32 native
// arithmetic of softfloat/fast32.hpp for the binary ops) in tight
// branch-light loops the compiler can pipeline. This is the path on CPUs
// without AVX2, and the AVX2 kernels' hard lanes run the same bodies.
// Bit- and flag-identical to the scalar batch entry points by the
// arguments laid out in those two headers, and proven so by the
// exhaustive sweep32 gates and tests/softfloat/test_fast32.cpp.
#include "softfloat/batch_kernels.hpp"

#include <bit>
#include <cstdint>

#include "softfloat/batch_kernels_impl.hpp"

namespace fpq::softfloat::kernels::portable {

namespace {

/// Shared add/sub loop over impl::add32_lane.
template <bool kIsSub>
void addsub32(const Float32* a, const Float32* b, Float32* out,
              unsigned* flags, std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::add32_lane(a[i].bits, b[i].bits, kIsSub, mode, daz, env, fl));
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
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::mul32_lane(a[i].bits, b[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(
        impl::div32_lane(a[i].bits, b[i].bits, mode, daz, env, fl));
    flags[i] |= fl;
  }
}

void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  const impl::FenvPin pin;
  const Rounding mode = env.rounding();
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    unsigned fl = 0;
    out[i] = Float32::from_bits(impl::fma32_lane(
        a[i].bits, b[i].bits, c[i].bits, mode, daz, env, fl));
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
