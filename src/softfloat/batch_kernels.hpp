// fpq::softfloat — internal declarations for the accelerated batch
// kernels behind batch.cpp's dispatch (see kernels.hpp for the variant
// model). Each kernel implements EXACTLY the corresponding batch entry
// point's per-lane contract: out[i] and flags[i] |= are bit- and
// flag-identical to the scalar softfloat operation under the Env's
// rounding mode and FTZ/DAZ state, out may alias inputs, lanes run in
// order, and the Env's sticky flags are clobbered (scalar-fallback lanes
// use it as scratch).
//
// The portable arithmetic kernels are one template per op, instantiated
// for binary16 and binary32 over one lane body per op
// (batch_kernels_impl.hpp); bfloat16 arithmetic has no kernel and runs
// the scalar loops. Kernels that run host floating point (that
// arithmetic, sqrt included) pin the fenv to round-to-nearest
// internally — callers like the sweep32 shard loops invoke them under
// ambient, per-shard rounding modes. The convert / round-to-int /
// operand narrowing kernels are pure integer code and need no pinning.
//
// Not a public header: only batch.cpp, kernels.cpp, and the kernel TUs
// (batch_kernels_portable.cpp / batch_kernels_avx2.cpp) include it.
#pragma once

#include <cstddef>

#include "softfloat/env.hpp"
#include "softfloat/value.hpp"

namespace fpq::softfloat::kernels {

/// True when batch_kernels_avx2.cpp was built with AVX2 code generation
/// (the build adds -mavx2 for that one TU when the compiler supports it;
/// otherwise the TU compiles portable forwarders and this returns false).
bool avx2_compiled() noexcept;

namespace portable {

// Arithmetic, one template per op over the shared lane bodies
// (batch_kernels_impl.hpp), instantiated for kBits = 16 and 32 only.
template <int kBits>
void add(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept;
template <int kBits>
void sub(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept;
template <int kBits>
void mul(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept;
template <int kBits>
void div(const Float<kBits>* a, const Float<kBits>* b, Float<kBits>* out,
         unsigned* flags, std::size_t n, Env& env) noexcept;
template <int kBits>
void fma(const Float<kBits>* a, const Float<kBits>* b, const Float<kBits>* c,
         Float<kBits>* out, unsigned* flags, std::size_t n,
         Env& env) noexcept;
template <int kBits>
void sqrt(const Float<kBits>* a, Float<kBits>* out, unsigned* flags,
          std::size_t n, Env& env) noexcept;

// Round-to-integral, the converts and the operand narrowing.
void round_int32(const Float32* a, Float32* out, unsigned* flags,
                 std::size_t n, Env& env) noexcept;
void narrow_32_to_16(const Float32* a, Float16* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept;
void narrow_32_to_bf16(const Float32* a, BFloat16* out, unsigned* flags,
                       std::size_t n, Env& env) noexcept;
void narrow_64_to_32(const Float64* a, Float32* out, unsigned* flags,
                     std::size_t n, Env& env) noexcept;
/// narrow_from_double_n<32>: narrow_64_to_32's lane body over a strided
/// column of host doubles, with every flag discarded (`quiet` supplies
/// the rounding and DAZ modes and is scratch for the fallback lanes).
void narrow_double_to_32(const double* in, std::size_t stride, Float32* out,
                         std::size_t n, Env& quiet) noexcept;
void widen_16_to_32(const Float16* a, Float32* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept;
void widen_bf16_to_32(const BFloat16* a, Float32* out, unsigned* flags,
                      std::size_t n, Env& env) noexcept;
void widen_32_to_64(const Float32* a, Float64* out, unsigned* flags,
                    std::size_t n, Env& env) noexcept;

/// narrow_from_double_n<16>: fast::narrow16_value over a strided column
/// of host doubles, with every flag discarded (`quiet` supplies the
/// rounding and DAZ modes and is scratch for the fallback lanes).
void narrow_double_to_16(const double* in, std::size_t stride, Float16* out,
                         std::size_t n, Env& quiet) noexcept;

}  // namespace portable

// The AVX2 set: the kernels a workload runs hot — sqrt, the five binary32
// arithmetic ops and the operand narrowing. Each vectorizes its common
// class and runs every other lane through the portable variant's per-lane
// body (batch_kernels_impl.hpp). Every other op dispatches to the portable
// kernel under the avx2 variant. When avx2_compiled() is false these are
// forwarders to the portable kernels (and dispatch never selects them
// anyway).
namespace avx2 {

void add32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept;
void sub32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept;
void mul32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept;
void div32(const Float32* a, const Float32* b, Float32* out, unsigned* flags,
           std::size_t n, Env& env) noexcept;
void fma32(const Float32* a, const Float32* b, const Float32* c, Float32* out,
           unsigned* flags, std::size_t n, Env& env) noexcept;
void sqrt32(const Float32* a, Float32* out, unsigned* flags, std::size_t n,
            Env& env) noexcept;
void narrow_double_to_32(const double* in, std::size_t stride, Float32* out,
                         std::size_t n, Env& quiet) noexcept;

}  // namespace avx2

}  // namespace fpq::softfloat::kernels
