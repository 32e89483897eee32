// fpq::inject — the fault-injecting evaluator decorator.
//
// InjectingEvaluator wraps any ir::Evaluator<double> working in binary64
// and applies an Injector's campaign to its operation stream: operands
// are mutated before the inner evaluator sees them, results after it
// produced them, and — when the inner evaluator exposes ir::FlagControl —
// sticky exception flags are tampered with in place. The wrapped
// evaluator cannot tell it is being lied to, which is exactly the threat
// model: the detectors downstream get no hint either.
//
// Injectable operations are the value-producing arithmetic ops (add, sub,
// mul, div, sqrt, fma). neg and the comparisons pass through un-mutated
// (they still feel sticky flag swallowing); constants and variable reads
// are not operations.
//
// Site numbering assumes every source-level operation executes in tree
// order, which ir::evaluate_tree provides; every context decorator
// (context.hpp) drives this evaluator through that walk.
//
// The two sticky fault classes touch substrate-specific machinery —
// flag swallowing erases the evaluator's sticky exception state, rounding
// perturbation recomputes a result under a leaked rounding mode — so both
// are protected virtual hooks. The base class implements the softfloat
// substrate (FlagControl tampering, softfloat binary64 recompute);
// NativeInjectingEvaluator (context.hpp) overrides them with real
// feclearexcept / fesetround against the host FPU. Arming, value-level
// mutation and effectiveness accounting stay in the base class, which is
// what makes the two substrates draw identical campaigns.
//
// Binary64 only: rounding-mode perturbation recomputes operations in
// binary64, so wrapping a narrower-format evaluator would perturb in the
// wrong format. The gauntlet wraps ir::SoftEvaluator<64> and
// ir::NativeEvaluator<double>.
#pragma once

#include "inject/fault.hpp"
#include "ir/evaluator.hpp"

namespace fpq::inject {

class InjectingEvaluator : public ir::Evaluator<double> {
 public:
  /// `inner` must outlive this evaluator and evaluate in binary64.
  /// Flag-swallow faults require the inner evaluator to implement
  /// ir::FlagControl (discovered via dynamic_cast); without it they are
  /// inert and the campaign degrades to control trials.
  InjectingEvaluator(ir::Evaluator<double>& inner, Injector& injector);

  double constant(const ir::Expr& e) override;
  double variable(const ir::Expr& e, double bound) override;
  double neg(const ir::Expr& e, const double& a) override;
  double add(const ir::Expr& e, const double& a, const double& b) override;
  double sub(const ir::Expr& e, const double& a, const double& b) override;
  double mul(const ir::Expr& e, const double& a, const double& b) override;
  double div(const ir::Expr& e, const double& a, const double& b) override;
  double sqrt(const ir::Expr& e, const double& a) override;
  double fma(const ir::Expr& e, const double& a, const double& b,
             const double& c) override;
  double cmp_eq(const ir::Expr& e, const double& a,
                const double& b) override;
  double cmp_lt(const ir::Expr& e, const double& a,
                const double& b) override;

 protected:
  enum class Op { kAdd, kSub, kMul, kDiv, kSqrt, kFma };

  /// Substrate hook for the sticky kFlagSwallow class: when the campaign
  /// has a swallow mask armed, erase whatever sticky exception state the
  /// substrate carries and report the eaten bits (softfloat Flag bits)
  /// via injector().note_swallowed(). The base class tampers with the
  /// inner evaluator's ir::FlagControl.
  virtual void swallow_flags();

  /// Substrate hook for the sticky kRoundingPerturb class: recompute the
  /// operation under the perturbed rounding-direction attribute and
  /// return the result. Value-level only — the hook must leave the
  /// substrate's exception-flag accounting exactly as it found it (the
  /// leaked-mode bug changes results long before it changes flags). The
  /// base class recomputes through the softfloat binary64 engine.
  virtual double recompute_rounded(Op op, double a, double b, double c,
                                   softfloat::Rounding mode);

  /// Substrate hook for flow monitoring: the CURRENT sticky exception
  /// state as softfloat Flag bits, read without modifying anything. The
  /// base class reads the inner evaluator's ir::FlagControl; the native
  /// substrate overrides with fetestexcept + the MXCSR DE bit. Sampled
  /// immediately before AND after swallow_flags() so a swallow shows up
  /// as sticky bits vanishing between two samples of the same site.
  virtual unsigned sampled_sticky_flags();

  Injector& injector() noexcept { return *injector_; }

 private:
  double inject(Op op, const ir::Expr& e, double a, double b, double c);
  double forward(Op op, const ir::Expr& e, double a, double b, double c);
  /// Applies the sticky classes (rounding recompute, flag swallowing)
  /// that act on EVERY operation once armed, emitting pre/post-swallow
  /// flow flag samples at `tag` when a FlowMonitor is live.
  double sticky_pass(Op op, std::uint64_t tag, double a, double b,
                     double c, double r, bool recomputable);
  /// neg/cmp passthrough: swallow + flow emission under an aux tag.
  double observe_passthrough(double a, double b, unsigned operand_count,
                             double r);

  ir::Evaluator<double>& inner_;
  ir::FlagControl* flags_;  // null when inner has no flag control
  Injector* injector_;
};

}  // namespace fpq::inject
