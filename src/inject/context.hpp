// fpq::inject — injecting contexts at the workloads::EvalContext seam.
//
// The evaluator decorator (evaluator.hpp) attacks ONE expression
// evaluation; kernels are many evaluations. This header supplies the
// per-run plumbing: EvalContext implementations that thread a single
// Injector through every call of a kernel, one per substrate, so the SAME
// campaign — same (seed, CampaignConfig), same (call, op) site numbering,
// same sites_fingerprint() — attacks either arithmetic engine:
//
//   * SoftInjectingContext — the softfloat engine. One persistent
//     SoftEvaluator<64> carries the run-wide sticky flag union, mirroring
//     how real hardware's fenv accumulates across a whole kernel run; its
//     observed() is the run-level ConditionSet the fpmon detector scores.
//
//   * NativeInjectingContext — the host FPU, for kernels executing under
//     fpmon hardware monitoring. Faults stop being simulations here:
//     flag-swallow calls real feclearexcept (plus the MXCSR DE bit),
//     rounding-perturb recomputes under real fesetround, and every fenv
//     excursion is saved/restored exception-safely so the only persistent
//     fenv damage is the damage the fault MODEL specifies (eaten flags),
//     never collateral (leaked rounding modes, phantom flags).
//
// Every context here walks the tree (ir::evaluate_tree), whose visit
// order is the order the Injector numbers sites by. None of them compiles
// a tape: a CSE/folded tape would elide and reorder operations and so
// mis-number sites, and the walk keeps no per-tree state between calls.
#pragma once

#include <span>
#include <vector>

#include "fpmon/monitor.hpp"
#include "inject/evaluator.hpp"
#include "inject/fault.hpp"
#include "ir/evaluators.hpp"
#include "workloads/workloads.hpp"

namespace fpq::inject {

/// Inverse of the fenv half of mon::sticky_flags' mapping: softfloat Flag
/// bits to the FE_* excepts mask (kFlagDenormalInput has no fenv bit and
/// is dropped; the MXCSR DE bit is handled separately).
int softfloat_flags_to_fenv(unsigned flags) noexcept;

/// One recorded kernel call: what was evaluated, with which bindings, and
/// what came back. The per-call detectors (shadow, interval) re-execute
/// from these.
struct CallRecord {
  ir::Expr expr;
  std::vector<double> bindings;
  double result = 0.0;
};

/// Transparent recording decorator: forwards every call to an inner
/// context and keeps the CallRecord stream. Composes over any substrate
/// (clean or injecting), which is how the gauntlet captures call-aligned
/// streams for baseline-vs-injected comparison.
class RecordingContext final : public workloads::EvalContext {
 public:
  explicit RecordingContext(workloads::EvalContext& inner)
      : inner_(&inner) {}

  double call(const ir::Expr& expr,
              std::span<const double> bindings) override {
    const double r = inner_->call(expr, bindings);
    records_.push_back(
        {expr, std::vector<double>(bindings.begin(), bindings.end()), r});
    return r;
  }

  const std::vector<CallRecord>& records() const noexcept {
    return records_;
  }

 private:
  workloads::EvalContext* inner_;
  std::vector<CallRecord> records_;
};

/// Clean softfloat context: the softfloat analogue of
/// workloads::NativeContext. One persistent SoftEvaluator<64> walks every
/// call and accumulates the run-wide sticky flag union; observed() is
/// what a ScopedMonitor would have reported had the run been native —
/// the clean fpmon baseline for softfloat trials.
class SoftContext final : public workloads::EvalContext {
 public:
  double call(const ir::Expr& expr,
              std::span<const double> bindings) override;

  mon::ConditionSet observed() const noexcept {
    return mon::ConditionSet::from_softfloat_flags(soft_.flags());
  }

 private:
  ir::SoftEvaluator<64> soft_{ir::EvalConfig::ieee_strict()};
};

/// Softfloat injecting context: one Injector, one persistent
/// SoftEvaluator<64> across every call of the run. Persistence matters —
/// the sticky flag union (and therefore what a flag-swallow fault finds
/// to eat) spans the whole run, exactly like the native substrate's fenv,
/// so the two substrates agree on which sticky sites were effective.
/// Walks the reference tree walk, whose visit order defines site
/// numbering.
class SoftInjectingContext final : public workloads::EvalContext {
 public:
  /// `injector` must outlive the context; one context serves one run.
  explicit SoftInjectingContext(Injector& injector);

  double call(const ir::Expr& expr,
              std::span<const double> bindings) override;

  /// Run-level condition union as the campaign left it (post-swallowing).
  mon::ConditionSet observed() const noexcept {
    return mon::ConditionSet::from_softfloat_flags(soft_.flags());
  }

 private:
  ir::SoftEvaluator<64> soft_;
  InjectingEvaluator inj_;
  Injector* injector_;
};

/// The native substrate's sticky-class hooks: flag swallowing erases the
/// REAL fenv sticky bits (feclearexcept + the MXCSR DE bit), and rounding
/// perturbation recomputes under a REAL fesetround — with the entire fenv
/// snapshot restored before the hook returns, so the perturbation is
/// value-only exactly like the softfloat base class. roundTiesToAway has
/// no fenv encoding; that mode recomputes through the softfloat engine,
/// which produces the identical correctly-rounded binary64 value.
class NativeInjectingEvaluator : public InjectingEvaluator {
 public:
  NativeInjectingEvaluator(ir::Evaluator<double>& inner,
                           Injector& injector);

 protected:
  void swallow_flags() override;
  double recompute_rounded(Op op, double a, double b, double c,
                           softfloat::Rounding mode) override;
  /// Flow-monitoring sample of the REAL sticky state: fetestexcept plus
  /// the MXCSR DE bit, mapped to softfloat Flag bits. Read-only.
  unsigned sampled_sticky_flags() override;
};

/// Host-FPU injecting context. Walks kernels on the real FPU through
/// NativeEvaluator<double> under the injector's campaign, so an
/// enclosing fpmon::ScopedMonitor observes the faults' genuine hardware
/// footprint. Each call saves the rounding mode on entry and restores it
/// on every exit path (including exceptions thrown mid-kernel); the
/// sticky exception flags a swallow fault ate stay eaten — that IS the
/// injected bug — but nothing else leaks.
class NativeInjectingContext final : public workloads::EvalContext {
 public:
  /// `injector` must outlive the context; one context serves one run.
  explicit NativeInjectingContext(Injector& injector);

  double call(const ir::Expr& expr,
              std::span<const double> bindings) override;

 private:
  ir::NativeEvaluator<double> native_;
  NativeInjectingEvaluator inj_;
  Injector* injector_;
};

}  // namespace fpq::inject
