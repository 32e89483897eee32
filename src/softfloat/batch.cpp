#include "softfloat/batch.hpp"

#include <cstdint>

#include "softfloat/batch_kernels.hpp"
#include "softfloat/kernels.hpp"
#include "softfloat/ops.hpp"

namespace fpq::softfloat {

namespace {

// Kernel dispatch happens here, inside the batch entry points, so every
// caller — tape execution, the sweep32 shard loops, direct users — flows
// through the accelerated kernels without changes. Only the ops with
// accelerated binary32 implementations branch; everything else (and the
// kScalar variant) keeps the scalar reference loops below, except the
// comparisons, which run inline on every variant (compare_lanes).
inline bool use_kernels() noexcept {
  return active_kernel_variant() != KernelVariant::kScalar;
}
inline bool use_avx2() noexcept {
  return active_kernel_variant() == KernelVariant::kAvx2;
}

// One binary-op lane loop; the op itself is the scalar entry point, so
// per-lane semantics (rounding, FTZ/DAZ, flags) are the scalar engine's
// by construction.
template <int kBits, typename Op>
void binary_lanes(const Float<kBits>* a, const Float<kBits>* b,
                  Float<kBits>* out, unsigned* flags, std::size_t n,
                  Env& env, Op op) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    env.clear_flags();
    out[i] = op(a[i], b[i], env);
    flags[i] |= env.flags();
  }
}

}  // namespace

template <int kBits>
void add_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::add32(a, b, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::add32(a, b, out, flags, n, env);
      return;
    }
  }
  binary_lanes<kBits>(a, b, out, flags, n, env,
                      [](Float<kBits> x, Float<kBits> y, Env& e) {
                        return add(x, y, e);
                      });
}

template <int kBits>
void sub_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::sub32(a, b, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::sub32(a, b, out, flags, n, env);
      return;
    }
  }
  binary_lanes<kBits>(a, b, out, flags, n, env,
                      [](Float<kBits> x, Float<kBits> y, Env& e) {
                        return sub(x, y, e);
                      });
}

template <int kBits>
void mul_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::mul32(a, b, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::mul32(a, b, out, flags, n, env);
      return;
    }
  }
  binary_lanes<kBits>(a, b, out, flags, n, env,
                      [](Float<kBits> x, Float<kBits> y, Env& e) {
                        return mul(x, y, e);
                      });
}

template <int kBits>
void div_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
           unsigned* flags, std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::div32(a, b, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::div32(a, b, out, flags, n, env);
      return;
    }
  }
  binary_lanes<kBits>(a, b, out, flags, n, env,
                      [](Float<kBits> x, Float<kBits> y, Env& e) {
                        return div(x, y, e);
                      });
}

template <int kBits>
void sqrt_n(const Float<kBits>* a, Float<kBits>* out, unsigned* flags,
            std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::sqrt32(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::sqrt32(a, out, flags, n, env);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    env.clear_flags();
    out[i] = sqrt(a[i], env);
    flags[i] |= env.flags();
  }
}

template <int kBits>
void fma_n(const Float<kBits>* a, const Float<kBits>* b,
           const Float<kBits>* c, Float<kBits>* out, unsigned* flags,
           std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::fma32(a, b, c, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::fma32(a, b, c, out, flags, n, env);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    env.clear_flags();
    out[i] = fma(a[i], b[i], c[i], env);
    flags[i] |= env.flags();
  }
}

// Comparisons run inline on every variant: a non-NaN lane orders the
// sign-magnitude keys compare.cpp's magnitude_key defines (DAZ zeroes
// subnormal magnitudes; ordered comparisons raise no flag), and a lane
// with a NaN operand takes the scalar predicate for its invalid rules.
namespace {

template <int kBits>
std::int64_t order_key(Float<kBits> x, bool daz) noexcept {
  const auto mag =
      daz && x.is_subnormal() ? 0 : static_cast<std::int64_t>(x.abs().bits);
  return x.sign() ? -mag : mag;
}

template <bool kLess, int kBits>
void compare_lanes(const Float<kBits>* a, const Float<kBits>* b,
                   Float<kBits>* out, unsigned* flags, std::size_t n,
                   Env& env) noexcept {
  const bool daz = env.denormals_are_zero();
  for (std::size_t i = 0; i < n; ++i) {
    bool r;
    if (a[i].is_nan() || b[i].is_nan()) {
      env.clear_flags();
      r = kLess ? less(a[i], b[i], env) : equal(a[i], b[i], env);
      flags[i] |= env.flags();
    } else {
      const std::int64_t ka = order_key(a[i], daz);
      const std::int64_t kb = order_key(b[i], daz);
      r = kLess ? ka < kb : ka == kb;
    }
    out[i] = r ? Float<kBits>::one() : Float<kBits>::zero();
  }
}

}  // namespace

template <int kBits>
void equal_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
             unsigned* flags, std::size_t n, Env& env) noexcept {
  compare_lanes<false>(a, b, out, flags, n, env);
}

template <int kBits>
void less_n(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
            unsigned* flags, std::size_t n, Env& env) noexcept {
  compare_lanes<true>(a, b, out, flags, n, env);
}

template <int kBits>
void neg_n(const Float<kBits>* a, Float<kBits>* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i].negated();
}

template <int kBits>
void round_int_n(const Float<kBits>* a, Float<kBits>* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept {
  if constexpr (kBits == 32) {
    if (use_avx2()) {
      kernels::avx2::round_int32(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::round_int32(a, out, flags, n, env);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    env.clear_flags();
    out[i] = round_to_integral(a[i], env);
    flags[i] |= env.flags();
  }
}

template <int kTo, int kFrom>
void convert_n(const Float<kFrom>* a, Float<kTo>* out, unsigned* flags,
               std::size_t n, Env& env) noexcept {
  if constexpr (kTo == 16 && kFrom == 32) {
    if (use_avx2()) {
      kernels::avx2::narrow_32_to_16(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::narrow_32_to_16(a, out, flags, n, env);
      return;
    }
  } else if constexpr (kTo == kBFloat16 && kFrom == 32) {
    if (use_avx2()) {
      kernels::avx2::narrow_32_to_bf16(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::narrow_32_to_bf16(a, out, flags, n, env);
      return;
    }
  } else if constexpr (kTo == 32 && kFrom == 16) {
    if (use_avx2()) {
      kernels::avx2::widen_16_to_32(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::widen_16_to_32(a, out, flags, n, env);
      return;
    }
  } else if constexpr (kTo == 32 && kFrom == kBFloat16) {
    if (use_avx2()) {
      kernels::avx2::widen_bf16_to_32(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::widen_bf16_to_32(a, out, flags, n, env);
      return;
    }
  } else if constexpr (kTo == 64 && kFrom == 32) {
    if (use_avx2()) {
      kernels::avx2::widen_32_to_64(a, out, flags, n, env);
      return;
    }
    if (use_kernels()) {
      kernels::portable::widen_32_to_64(a, out, flags, n, env);
      return;
    }
  } else if constexpr (kTo == 32 && kFrom == 64) {
    // No AVX2 kernel for the flag-reporting form (the tape's flag-free
    // narrowing, narrow_from_double_n<32>, has one); portable still
    // beats scalar.
    if (use_kernels()) {
      kernels::portable::narrow_64_to_32(a, out, flags, n, env);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    env.clear_flags();
    out[i] = convert<kTo, kFrom>(a[i], env);
    flags[i] |= env.flags();
  }
}

template <int kBits>
void narrow_from_double_n(const double* in, std::size_t stride,
                          Float<kBits>* out, std::size_t n,
                          const Env& env) noexcept {
  if constexpr (kBits == 64) {
    (void)env;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = from_native(in[i * stride]);
    }
  } else {
    // Quiet conversion with the caller's rounding and DAZ modes: flags a
    // narrowing raises are discarded, like the evaluators' literal and
    // operand narrowing.
    Env quiet(env.rounding());
    quiet.set_denormals_are_zero(env.denormals_are_zero());
    if constexpr (kBits == 32) {
      if (use_avx2()) {
        kernels::avx2::narrow_double_to_32(in, stride, out, n, quiet);
        return;
      }
      if (use_kernels()) {
        kernels::portable::narrow_double_to_32(in, stride, out, n, quiet);
        return;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = convert<kBits>(from_native(in[i * stride]), quiet);
    }
  }
}

template <int kBits>
void widen_to_double_n(const Float<kBits>* in, double* out,
                       std::size_t n) noexcept {
  if constexpr (kBits == 64) {
    for (std::size_t i = 0; i < n; ++i) out[i] = to_native(in[i]);
  } else {
    Env quiet;  // widening is exact
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = to_native(convert<64>(in[i], quiet));
    }
  }
}

template void add_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                        std::size_t, Env&) noexcept;
template void add_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                        std::size_t, Env&) noexcept;
template void add_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                        std::size_t, Env&) noexcept;
template void add_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                               unsigned*, std::size_t, Env&) noexcept;
template void sub_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                        std::size_t, Env&) noexcept;
template void sub_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                        std::size_t, Env&) noexcept;
template void sub_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                        std::size_t, Env&) noexcept;
template void sub_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                               unsigned*, std::size_t, Env&) noexcept;
template void mul_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                        std::size_t, Env&) noexcept;
template void mul_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                        std::size_t, Env&) noexcept;
template void mul_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                        std::size_t, Env&) noexcept;
template void mul_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                               unsigned*, std::size_t, Env&) noexcept;
template void div_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                        std::size_t, Env&) noexcept;
template void div_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                        std::size_t, Env&) noexcept;
template void div_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                        std::size_t, Env&) noexcept;
template void div_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                               unsigned*, std::size_t, Env&) noexcept;
template void sqrt_n<16>(const Float16*, Float16*, unsigned*, std::size_t,
                         Env&) noexcept;
template void sqrt_n<32>(const Float32*, Float32*, unsigned*, std::size_t,
                         Env&) noexcept;
template void sqrt_n<64>(const Float64*, Float64*, unsigned*, std::size_t,
                         Env&) noexcept;
template void sqrt_n<kBFloat16>(const BFloat16*, BFloat16*, unsigned*,
                                std::size_t, Env&) noexcept;
template void fma_n<16>(const Float16*, const Float16*, const Float16*,
                        Float16*, unsigned*, std::size_t, Env&) noexcept;
template void fma_n<32>(const Float32*, const Float32*, const Float32*,
                        Float32*, unsigned*, std::size_t, Env&) noexcept;
template void fma_n<64>(const Float64*, const Float64*, const Float64*,
                        Float64*, unsigned*, std::size_t, Env&) noexcept;
template void fma_n<kBFloat16>(const BFloat16*, const BFloat16*,
                               const BFloat16*, BFloat16*, unsigned*,
                               std::size_t, Env&) noexcept;
template void equal_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                          std::size_t, Env&) noexcept;
template void equal_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                          std::size_t, Env&) noexcept;
template void equal_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                          std::size_t, Env&) noexcept;
template void equal_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                                 unsigned*, std::size_t, Env&) noexcept;
template void less_n<16>(const Float16*, const Float16*, Float16*, unsigned*,
                         std::size_t, Env&) noexcept;
template void less_n<32>(const Float32*, const Float32*, Float32*, unsigned*,
                         std::size_t, Env&) noexcept;
template void less_n<64>(const Float64*, const Float64*, Float64*, unsigned*,
                         std::size_t, Env&) noexcept;
template void less_n<kBFloat16>(const BFloat16*, const BFloat16*, BFloat16*,
                                unsigned*, std::size_t, Env&) noexcept;
template void neg_n<16>(const Float16*, Float16*, std::size_t) noexcept;
template void neg_n<32>(const Float32*, Float32*, std::size_t) noexcept;
template void neg_n<64>(const Float64*, Float64*, std::size_t) noexcept;
template void neg_n<kBFloat16>(const BFloat16*, BFloat16*,
                               std::size_t) noexcept;
template void round_int_n<16>(const Float16*, Float16*, unsigned*,
                              std::size_t, Env&) noexcept;
template void round_int_n<32>(const Float32*, Float32*, unsigned*,
                              std::size_t, Env&) noexcept;
template void round_int_n<64>(const Float64*, Float64*, unsigned*,
                              std::size_t, Env&) noexcept;
template void round_int_n<kBFloat16>(const BFloat16*, BFloat16*, unsigned*,
                                     std::size_t, Env&) noexcept;
template void convert_n<16, 32>(const Float32*, Float16*, unsigned*,
                                std::size_t, Env&) noexcept;
template void convert_n<64, 32>(const Float32*, Float64*, unsigned*,
                                std::size_t, Env&) noexcept;
template void convert_n<kBFloat16, 32>(const Float32*, BFloat16*, unsigned*,
                                       std::size_t, Env&) noexcept;
template void convert_n<32, 16>(const Float16*, Float32*, unsigned*,
                                std::size_t, Env&) noexcept;
template void convert_n<32, kBFloat16>(const BFloat16*, Float32*, unsigned*,
                                       std::size_t, Env&) noexcept;
template void convert_n<32, 64>(const Float64*, Float32*, unsigned*,
                                std::size_t, Env&) noexcept;
template void convert_n<16, 64>(const Float64*, Float16*, unsigned*,
                                std::size_t, Env&) noexcept;
template void convert_n<64, 16>(const Float16*, Float64*, unsigned*,
                                std::size_t, Env&) noexcept;
template void narrow_from_double_n<16>(const double*, std::size_t, Float16*,
                                       std::size_t, const Env&) noexcept;
template void narrow_from_double_n<32>(const double*, std::size_t, Float32*,
                                       std::size_t, const Env&) noexcept;
template void narrow_from_double_n<64>(const double*, std::size_t, Float64*,
                                       std::size_t, const Env&) noexcept;
template void narrow_from_double_n<kBFloat16>(const double*, std::size_t,
                                              BFloat16*, std::size_t,
                                              const Env&) noexcept;
template void widen_to_double_n<16>(const Float16*, double*,
                                    std::size_t) noexcept;
template void widen_to_double_n<32>(const Float32*, double*,
                                    std::size_t) noexcept;
template void widen_to_double_n<64>(const Float64*, double*,
                                    std::size_t) noexcept;
template void widen_to_double_n<kBFloat16>(const BFloat16*, double*,
                                           std::size_t) noexcept;

}  // namespace fpq::softfloat
