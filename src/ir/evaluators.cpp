#include "ir/evaluators.hpp"

#include <bit>
#include <cstdint>

#include "ir/native_ops.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

std::uint64_t EvalConfig::fingerprint() const noexcept {
  std::uint64_t packed = static_cast<std::uint64_t>(format_bits);
  packed = (packed << 3) | static_cast<std::uint64_t>(rounding);
  packed = (packed << 1) | static_cast<std::uint64_t>(contract_mul_add);
  packed = (packed << 1) | static_cast<std::uint64_t>(reassociate);
  packed = (packed << 1) | static_cast<std::uint64_t>(flush_to_zero);
  packed = (packed << 1) | static_cast<std::uint64_t>(denormals_are_zero);
  // splitmix64 finalizer so distinct configs land in distinct stripes.
  std::uint64_t z = packed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Opaque ops: evaluation must observe real FPU behavior, not constant
// folds (same discipline as the native quiz backends and workloads).
// Shared with the injecting native context via native_ops.hpp.
namespace native {

namespace {

[[gnu::noinline]] double h_add(double a, double b) {
  volatile double va = a, vb = b;
  volatile double r = va + vb;
  return r;
}
[[gnu::noinline]] double h_sub(double a, double b) {
  volatile double va = a, vb = b;
  volatile double r = va - vb;
  return r;
}
[[gnu::noinline]] double h_mul(double a, double b) {
  volatile double va = a, vb = b;
  volatile double r = va * vb;
  return r;
}
[[gnu::noinline]] double h_div(double a, double b) {
  volatile double va = a, vb = b;
  volatile double r = va / vb;
  return r;
}
[[gnu::noinline]] double h_sqrt(double a) {
  volatile double va = a;
  volatile double r = __builtin_sqrt(va);
  return r;
}
[[gnu::noinline]] double h_fma(double a, double b, double c) {
  volatile double va = a, vb = b, vc = c;
  volatile double r = __builtin_fma(va, vb, vc);
  return r;
}
[[gnu::noinline]] bool h_eq(double a, double b) {
  volatile double va = a, vb = b;
  return va == vb;
}
[[gnu::noinline]] bool h_lt(double a, double b) {
  volatile double va = a, vb = b;
  return va < vb;
}

[[gnu::noinline]] float hf_add(float a, float b) {
  volatile float va = a, vb = b;
  volatile float r = va + vb;
  return r;
}
[[gnu::noinline]] float hf_sub(float a, float b) {
  volatile float va = a, vb = b;
  volatile float r = va - vb;
  return r;
}
[[gnu::noinline]] float hf_mul(float a, float b) {
  volatile float va = a, vb = b;
  volatile float r = va * vb;
  return r;
}
[[gnu::noinline]] float hf_div(float a, float b) {
  volatile float va = a, vb = b;
  volatile float r = va / vb;
  return r;
}
[[gnu::noinline]] float hf_sqrt(float a) {
  volatile float va = a;
  volatile float r = __builtin_sqrtf(va);
  return r;
}
[[gnu::noinline]] float hf_fma(float a, float b, float c) {
  volatile float va = a, vb = b, vc = c;
  volatile float r = __builtin_fmaf(va, vb, vc);
  return r;
}
[[gnu::noinline]] float hf_narrow(double x) {
  volatile double vx = x;
  volatile float r = static_cast<float>(vx);
  return r;
}

}  // namespace

double add64(double a, double b) noexcept { return h_add(a, b); }
double sub64(double a, double b) noexcept { return h_sub(a, b); }
double mul64(double a, double b) noexcept { return h_mul(a, b); }
double div64(double a, double b) noexcept { return h_div(a, b); }
double sqrt64(double a) noexcept { return h_sqrt(a); }
double fma64(double a, double b, double c) noexcept { return h_fma(a, b, c); }
bool eq64(double a, double b) noexcept { return h_eq(a, b); }
bool lt64(double a, double b) noexcept { return h_lt(a, b); }

float add32(float a, float b) noexcept { return hf_add(a, b); }
float sub32(float a, float b) noexcept { return hf_sub(a, b); }
float mul32(float a, float b) noexcept { return hf_mul(a, b); }
float div32(float a, float b) noexcept { return hf_div(a, b); }
float sqrt32(float a) noexcept { return hf_sqrt(a); }
float fma32(float a, float b, float c) noexcept { return hf_fma(a, b, c); }
float narrow32(double x) noexcept { return hf_narrow(x); }

// Exact sign-bit flip, including for NaN (a host `-x` is also a pure
// sign-bit operation, but the bit_cast spelling cannot be folded into
// anything value-changing).
double flip_sign(double x) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                               (std::uint64_t{1} << 63));
}

}  // namespace native

double NativeEvaluator64::constant(const Expr& e) {
  return sf::to_native(e.node().value);
}
double NativeEvaluator64::variable(const Expr& e, double bound) {
  (void)e;
  return bound;
}
double NativeEvaluator64::neg(const Expr& e, const double& a) {
  (void)e;
  return native::flip_sign(a);
}
double NativeEvaluator64::add(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return native::add64(a, b);
}
double NativeEvaluator64::sub(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return native::sub64(a, b);
}
double NativeEvaluator64::mul(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return native::mul64(a, b);
}
double NativeEvaluator64::div(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return native::div64(a, b);
}
double NativeEvaluator64::sqrt(const Expr& e, const double& a) {
  (void)e;
  return native::sqrt64(a);
}
double NativeEvaluator64::fma(const Expr& e, const double& a,
                              const double& b, const double& c) {
  (void)e;
  return native::fma64(a, b, c);
}
double NativeEvaluator64::cmp_eq(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return native::eq64(a, b) ? 1.0 : 0.0;
}
double NativeEvaluator64::cmp_lt(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return native::lt64(a, b) ? 1.0 : 0.0;
}

double NativeEvaluator32::constant(const Expr& e) {
  return static_cast<double>(native::narrow32(sf::to_native(e.node().value)));
}
double NativeEvaluator32::variable(const Expr& e, double bound) {
  (void)e;
  return static_cast<double>(native::narrow32(bound));
}
double NativeEvaluator32::neg(const Expr& e, const double& a) {
  (void)e;
  return native::flip_sign(a);
}
double NativeEvaluator32::add(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(native::add32(native::narrow32(a), native::narrow32(b)));
}
double NativeEvaluator32::sub(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(native::sub32(native::narrow32(a), native::narrow32(b)));
}
double NativeEvaluator32::mul(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(native::mul32(native::narrow32(a), native::narrow32(b)));
}
double NativeEvaluator32::div(const Expr& e, const double& a,
                              const double& b) {
  (void)e;
  return static_cast<double>(native::div32(native::narrow32(a), native::narrow32(b)));
}
double NativeEvaluator32::sqrt(const Expr& e, const double& a) {
  (void)e;
  return static_cast<double>(native::sqrt32(native::narrow32(a)));
}
double NativeEvaluator32::fma(const Expr& e, const double& a,
                              const double& b, const double& c) {
  (void)e;
  return static_cast<double>(
      native::fma32(native::narrow32(a), native::narrow32(b), native::narrow32(c)));
}
double NativeEvaluator32::cmp_eq(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return native::eq64(native::narrow32(a), native::narrow32(b)) ? 1.0 : 0.0;
}
double NativeEvaluator32::cmp_lt(const Expr& e, const double& a,
                                 const double& b) {
  (void)e;
  return native::lt64(native::narrow32(a), native::narrow32(b)) ? 1.0 : 0.0;
}

namespace {

template <int kBits>
Outcome evaluate_soft(const Expr& tree, const EvalConfig& config,
                      std::span<const double> bindings, TraceSink* trace) {
  SoftEvaluator<kBits> ev(config, trace);
  Outcome out;
  out.value = sf::from_native(evaluate_tree<double>(tree, ev, bindings));
  out.flags = ev.flags();
  return out;
}

Outcome evaluate_format(const Expr& tree, const EvalConfig& config,
                        std::span<const double> bindings, TraceSink* trace) {
  switch (config.format_bits) {
    case 16:
      return evaluate_soft<16>(tree, config, bindings, trace);
    case 32:
      return evaluate_soft<32>(tree, config, bindings, trace);
    case sf::kBFloat16:
      return evaluate_soft<sf::kBFloat16>(tree, config, bindings, trace);
    default:
      return evaluate_soft<64>(tree, config, bindings, trace);
  }
}

}  // namespace

Outcome evaluate(const Expr& expr, const EvalConfig& config,
                 std::span<const double> bindings, TraceSink* trace) {
  // Without rewrites the caller's tree is walked as it is. A copy would
  // bump the shared node's reference count, a cache line that threads
  // walking one tree at once (sweep32's walk lane) then fight over.
  if (!config.contract_mul_add && !config.reassociate) {
    return evaluate_format(expr, config, bindings, trace);
  }
  return evaluate_format(
      pipeline_rewrite(expr, config.contract_mul_add, config.reassociate),
      config, bindings, trace);
}

}  // namespace fpq::ir
