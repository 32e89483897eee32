#include "inject/context.hpp"

#include <cfenv>
#include <cstdint>

#include "fpmon/hardware.hpp"
#include "softfloat/value.hpp"

namespace fpq::inject {

int softfloat_flags_to_fenv(unsigned flags) noexcept {
  int e = 0;
  if ((flags & softfloat::kFlagInvalid) != 0) e |= FE_INVALID;
  if ((flags & softfloat::kFlagDivByZero) != 0) e |= FE_DIVBYZERO;
  if ((flags & softfloat::kFlagOverflow) != 0) e |= FE_OVERFLOW;
  if ((flags & softfloat::kFlagUnderflow) != 0) e |= FE_UNDERFLOW;
  if ((flags & softfloat::kFlagInexact) != 0) e |= FE_INEXACT;
  return e;
}

namespace {

/// RAII snapshot of the complete floating-point environment — rounding
/// mode, sticky exception flags, and (on x86) the raw MXCSR including the
/// DE bit — restored on destruction, so any excursion inside the scope is
/// invisible afterwards no matter how the scope exits.
class FenvSnapshot {
 public:
  FenvSnapshot() noexcept {
    std::fegetenv(&env_);
    if (mon::mxcsr_supported()) mxcsr_ = mon::read_mxcsr();
  }
  ~FenvSnapshot() {
    std::fesetenv(&env_);
    // Explicit MXCSR restore after fesetenv: on targets whose fenv_t
    // does not carry MXCSR this is the only thing restoring DE.
    if (mon::mxcsr_supported()) mon::write_mxcsr(mxcsr_);
  }
  FenvSnapshot(const FenvSnapshot&) = delete;
  FenvSnapshot& operator=(const FenvSnapshot&) = delete;

 private:
  std::fenv_t env_;
  std::uint32_t mxcsr_ = 0;
};

/// RAII rounding-mode guard: saves fegetround() and restores it on every
/// exit path. Flags are deliberately NOT restored — an injected run's
/// flag damage is the fault model's observable product.
class ScopedRounding {
 public:
  ScopedRounding() noexcept : mode_(std::fegetround()) {}
  ~ScopedRounding() {
    if (mode_ >= 0) std::fesetround(mode_);
  }
  ScopedRounding(const ScopedRounding&) = delete;
  ScopedRounding& operator=(const ScopedRounding&) = delete;

 private:
  int mode_;
};

}  // namespace

double SoftContext::call(const ir::Expr& expr,
                         std::span<const double> bindings) {
  return ir::evaluate_tree<double>(expr, soft_, bindings);
}

SoftInjectingContext::SoftInjectingContext(Injector& injector)
    : soft_(ir::EvalConfig::ieee_strict()),
      inj_(soft_, injector),
      injector_(&injector) {}

double SoftInjectingContext::call(const ir::Expr& expr,
                                  std::span<const double> bindings) {
  injector_->begin_call();
  return ir::evaluate_tree<double>(expr, inj_, bindings);
}

NativeInjectingEvaluator::NativeInjectingEvaluator(
    ir::Evaluator<double>& inner, Injector& injector)
    : InjectingEvaluator(inner, injector) {}

void NativeInjectingEvaluator::swallow_flags() {
  const unsigned mask = injector().swallow_mask();
  if (mask == 0) return;
  const unsigned eaten = mon::sticky_flags() & mask;
  if (eaten == 0) return;
  std::feclearexcept(softfloat_flags_to_fenv(eaten));
  if ((eaten & softfloat::kFlagDenormalInput) != 0) {
    mon::write_mxcsr(mon::read_mxcsr() & ~mon::kMxcsrFlagDenormal);
  }
  injector().note_swallowed(eaten);
}

unsigned NativeInjectingEvaluator::sampled_sticky_flags() {
  // Read-only harvest of the real sticky state, in the Injector's flag
  // vocabulary. fetestexcept and the MXCSR read touch nothing.
  return mon::sticky_flags();
}

double NativeInjectingEvaluator::recompute_rounded(
    Op op, double a, double b, double c, softfloat::Rounding mode) {
  if (mode == softfloat::Rounding::kNearestAway) {
    // fenv has no ties-away direction: the softfloat engine's
    // correctly-rounded binary64 recompute produces the value the
    // hardware would have, and touches no fenv state at all.
    return InjectingEvaluator::recompute_rounded(op, a, b, c, mode);
  }
  // The snapshot makes the excursion value-only: the perturbed-mode
  // recompute raises real flags and leaves a real rounding mode behind,
  // and the destructor erases both before the result is even returned —
  // matching the softfloat base class's contract that the nearest-even
  // execution's flag accounting stands.
  FenvSnapshot snapshot;
  std::fesetround(mon::fenv_rounding(mode));
  switch (op) {
    case Op::kAdd:
      return mon::host::add(a, b);
    case Op::kSub:
      return mon::host::sub(a, b);
    case Op::kMul:
      return mon::host::mul(a, b);
    case Op::kDiv:
      return mon::host::div(a, b);
    case Op::kSqrt:
      return mon::host::sqrt(a);
    case Op::kFma:
      return mon::host::fma(a, b, c);
  }
  return 0.0;
}

NativeInjectingContext::NativeInjectingContext(Injector& injector)
    : inj_(native_, injector), injector_(&injector) {}

double NativeInjectingContext::call(const ir::Expr& expr,
                                    std::span<const double> bindings) {
  ScopedRounding guard;
  injector_->begin_call();
  return ir::evaluate_tree<double>(expr, inj_, bindings);
}

}  // namespace fpq::inject
