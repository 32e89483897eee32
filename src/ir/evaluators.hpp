// fpq::ir — concrete evaluators over the softfloat engine and the host
// FPU, plus the EvalConfig that names one complete arithmetic semantics.
//
// The value model is host double throughout (exactly the quiz backends'
// convention): evaluators for narrower formats round operands into the
// format on entry and widen results back exactly, so one binding span and
// one Outcome type serve every precision.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "fpmon/hardware.hpp"
#include "ir/evaluator.hpp"
#include "ir/rewrite.hpp"
#include "softfloat/env.hpp"
#include "softfloat/ops.hpp"
#include "softfloat/value.hpp"

namespace fpq::ir {

/// One complete arithmetic semantics: format, rounding, flush modes, and
/// which pipeline rewrites are applied before evaluation. This is the
/// "config" axis of the tape compile memo's key and of tape fingerprints.
struct EvalConfig {
  /// 16, 32, 64 or softfloat::kBFloat16.
  int format_bits = 64;
  softfloat::Rounding rounding = softfloat::Rounding::kNearestEven;
  /// Contract add/sub-of-mul into fma (the -ffp-contract=fast effect).
  bool contract_mul_add = false;
  /// Rebalance long +-chains (the -fassociative-math effect).
  bool reassociate = false;
  /// Non-standard hardware flush modes.
  bool flush_to_zero = false;
  bool denormals_are_zero = false;

  /// Stable 64-bit identity of this configuration (a tape-cache key part).
  std::uint64_t fingerprint() const noexcept;

  static EvalConfig ieee_strict() { return EvalConfig{}; }
};

/// Evaluation outcome: the (widened) value plus the softfloat sticky
/// flags the whole evaluation raised.
struct Outcome {
  softfloat::Float64 value;
  unsigned flags = 0;

  bool operator==(const Outcome&) const = default;
};

/// Softfloat evaluator for one format. Per-operation flags are captured
/// exactly (saved, cleared, raised by the op, recorded, re-raised), so a
/// TraceSink sees each node's own contribution while the Env's sticky
/// union stays identical to an uninstrumented run.
template <int kBits>
class SoftEvaluator final : public Evaluator<double>, public FlagControl {
 public:
  explicit SoftEvaluator(const EvalConfig& config,
                         TraceSink* trace = nullptr)
      : env_(config.rounding), trace_(trace) {
    env_.set_flush_to_zero(config.flush_to_zero);
    env_.set_denormals_are_zero(config.denormals_are_zero);
  }

  unsigned flags() const noexcept { return env_.flags(); }
  void clear_flags() noexcept { env_.clear_flags(); }

  unsigned sticky_flags() const noexcept override { return env_.flags(); }
  void override_sticky_flags(unsigned flags) noexcept override {
    env_.clear_flags();
    env_.raise(flags);
  }

  double constant(const Expr& e) override {
    // Literal conversion into the format is quiet, as on real hardware.
    return widen(narrow(softfloat::to_native(e.node().value)));
  }
  double variable(const Expr& e, double bound) override {
    (void)e;
    return widen(narrow(bound));
  }
  double neg(const Expr& e, const double& a) override {
    // Sign-bit operation: never raises flags (IEEE 5.5.1).
    const double r = widen(narrow(a).negated());
    if (trace_ != nullptr) trace_->on_op(e, r, 0);
    return r;
  }
  double add(const Expr& e, const double& a, const double& b) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::add(narrow(a), narrow(b), env);
    });
  }
  double sub(const Expr& e, const double& a, const double& b) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::sub(narrow(a), narrow(b), env);
    });
  }
  double mul(const Expr& e, const double& a, const double& b) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::mul(narrow(a), narrow(b), env);
    });
  }
  double div(const Expr& e, const double& a, const double& b) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::div(narrow(a), narrow(b), env);
    });
  }
  double sqrt(const Expr& e, const double& a) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::sqrt(narrow(a), env);
    });
  }
  double fma(const Expr& e, const double& a, const double& b,
             const double& c) override {
    return run(e, [&](softfloat::Env& env) {
      return softfloat::fma(narrow(a), narrow(b), narrow(c), env);
    });
  }
  double cmp_eq(const Expr& e, const double& a, const double& b) override {
    return cmp(e, a, b, /*eq=*/true);
  }
  double cmp_lt(const Expr& e, const double& a, const double& b) override {
    return cmp(e, a, b, /*eq=*/false);
  }

 private:
  template <typename F>
  double run(const Expr& e, F&& f) {
    const unsigned before = env_.flags();
    env_.clear_flags();
    const double r = widen(f(env_));
    const unsigned raised = env_.flags();
    env_.raise(before);  // restore: the sticky union is unchanged
    if (trace_ != nullptr) trace_->on_op(e, r, raised);
    return r;
  }
  double cmp(const Expr& e, double a, double b, bool eq) {
    const unsigned before = env_.flags();
    env_.clear_flags();
    const bool r = eq ? softfloat::equal(narrow(a), narrow(b), env_)
                      : softfloat::less(narrow(a), narrow(b), env_);
    const unsigned raised = env_.flags();
    env_.raise(before);
    const double out = r ? 1.0 : 0.0;
    if (trace_ != nullptr) trace_->on_op(e, out, raised);
    return out;
  }
  softfloat::Float<kBits> narrow(double x) {
    if constexpr (kBits == 64) {
      return softfloat::from_native(x);
    } else {
      // Conversion rounds but must not pollute the op's flag accounting
      // beyond what real hardware of that format would do with a literal.
      softfloat::Env quiet(env_.rounding());
      quiet.set_denormals_are_zero(env_.denormals_are_zero());
      return softfloat::convert<kBits>(softfloat::from_native(x), quiet);
    }
  }
  double widen(softfloat::Float<kBits> x) {
    if constexpr (kBits == 64) {
      return softfloat::to_native(x);
    } else {
      softfloat::Env quiet;  // widening is exact
      return softfloat::to_native(softfloat::convert<64>(x, quiet));
    }
  }

  softfloat::Env env_;
  TraceSink* trace_ = nullptr;
};

/// Host-FPU evaluator in binary64 (T = double) or binary32 (T = float).
/// Each arithmetic op is one call into mon::host's opaque ops, so the real
/// FPU executes it and any enclosing fpmon::ScopedMonitor observes genuine
/// hardware exceptions. binary32 narrows each operand through the FPU (so
/// the narrowing itself is observable) and widens results back to double
/// exactly. No per-op trace flags are emitted: draining fenv per
/// operation would corrupt the enclosing monitor, which is the whole point
/// of this evaluator. Use SoftEvaluator for provenance traces.
template <typename T>
class NativeEvaluator final : public Evaluator<double> {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>);

 public:
  double constant(const Expr& e) override {
    return widen(narrow(softfloat::to_native(e.node().value)));
  }
  double variable(const Expr&, double bound) override {
    return widen(narrow(bound));
  }
  double neg(const Expr&, const double& a) override {
    // Exact sign-bit flip, NaN included: never raises (IEEE 5.5.1).
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) ^
                                 (std::uint64_t{1} << 63));
  }
  double add(const Expr&, const double& a, const double& b) override {
    return widen(mon::host::add(narrow(a), narrow(b)));
  }
  double sub(const Expr&, const double& a, const double& b) override {
    return widen(mon::host::sub(narrow(a), narrow(b)));
  }
  double mul(const Expr&, const double& a, const double& b) override {
    return widen(mon::host::mul(narrow(a), narrow(b)));
  }
  double div(const Expr&, const double& a, const double& b) override {
    return widen(mon::host::div(narrow(a), narrow(b)));
  }
  double sqrt(const Expr&, const double& a) override {
    return widen(mon::host::sqrt(narrow(a)));
  }
  double fma(const Expr&, const double& a, const double& b,
             const double& c) override {
    return widen(mon::host::fma(narrow(a), narrow(b), narrow(c)));
  }
  // Comparisons run on the widened operands: binary32 values compare
  // exactly in binary64.
  double cmp_eq(const Expr&, const double& a, const double& b) override {
    return mon::host::eq(widen(narrow(a)), widen(narrow(b))) ? 1.0 : 0.0;
  }
  double cmp_lt(const Expr&, const double& a, const double& b) override {
    return mon::host::lt(widen(narrow(a)), widen(narrow(b))) ? 1.0 : 0.0;
  }

 private:
  static T narrow(double x) {
    if constexpr (std::is_same_v<T, double>) {
      return x;
    } else {
      return mon::host::narrow(x);
    }
  }
  static double widen(T x) { return static_cast<double>(x); }
};

/// The one-call entry point: applies the config's rewrite passes, then
/// evaluates on the softfloat engine in the config's format. `bindings`
/// feeds the tree's variables; `trace` (optional) receives per-operation
/// exception provenance.
Outcome evaluate(const Expr& expr, const EvalConfig& config,
                 std::span<const double> bindings = {},
                 TraceSink* trace = nullptr);

}  // namespace fpq::ir
