// fpq::ir — the evaluator contract: one generic tree walk, per-node hooks.
//
// An Evaluator<V> supplies the meaning of each node kind over its own
// value domain V (double for concrete arithmetic, Interval for
// enclosures, a double/BigFloat pair for shadow execution, ...). The walk
// itself — post-order, children left to right — lives here once, in
// evaluate_tree, so every analysis traverses expressions identically and
// divergence between analyses can only come from the hooks.
//
// The on_result hook fires after each node's value is computed (children
// first); analyzers that report per-node findings (shadow execution's
// relative-error and format-induced-exception checks) attach there
// without owning a traversal of their own.
#pragma once

#include <limits>
#include <span>

#include "ir/expr.hpp"

namespace fpq::ir {

/// Per-operation trace hook: records operation-level exception provenance
/// — WHICH node raised WHICH flags — rather than only the scope-level
/// sticky union (the FlowFPX-style upgrade over fpmon's reports).
/// `flags` is the softfloat flag set the single operation raised.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_op(const Expr& expr, double value, unsigned flags) = 0;
};

/// Optional evaluator capability: expose and overwrite the evaluator's
/// sticky exception-flag state mid-evaluation. Softfloat-backed
/// evaluators implement this; native-FPU evaluators deliberately do not
/// (draining fenv mid-run would corrupt an enclosing fpmon monitor).
/// Decorators that need to tamper with flags — fault injection's
/// flag-swallowing class — discover it via dynamic_cast and degrade
/// gracefully when absent.
class FlagControl {
 public:
  virtual ~FlagControl() = default;
  /// The sticky softfloat flag union accumulated so far.
  virtual unsigned sticky_flags() const noexcept = 0;
  /// Replaces the sticky union wholesale (clear + raise).
  virtual void override_sticky_flags(unsigned flags) noexcept = 0;
};

template <typename V>
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual V constant(const Expr& e) = 0;
  /// `bound` is the binding slot selected by the node's var_index
  /// (quiet NaN when the bindings span is too short).
  virtual V variable(const Expr& e, double bound) = 0;
  virtual V neg(const Expr& e, const V& a) = 0;
  virtual V add(const Expr& e, const V& a, const V& b) = 0;
  virtual V sub(const Expr& e, const V& a, const V& b) = 0;
  virtual V mul(const Expr& e, const V& a, const V& b) = 0;
  virtual V div(const Expr& e, const V& a, const V& b) = 0;
  virtual V sqrt(const Expr& e, const V& a) = 0;
  virtual V fma(const Expr& e, const V& a, const V& b, const V& c) = 0;
  virtual V cmp_eq(const Expr& e, const V& a, const V& b) = 0;
  virtual V cmp_lt(const Expr& e, const V& a, const V& b) = 0;

  /// Fires once per node, after its value is computed (post-order).
  virtual void on_result(const Expr& e, const V& v) { (void)e; (void)v; }
};

/// The one tree walk: post-order, children evaluated left to right (the
/// order C source implies and every legacy evaluator used).
template <typename V>
V evaluate_tree(const Expr& e, Evaluator<V>& ev,
                std::span<const double> bindings = {}) {
  const Expr::Node& n = e.node();
  auto child = [&](std::size_t i) {
    return evaluate_tree(n.children[i], ev, bindings);
  };
  V out{};
  switch (n.kind) {
    case ExprKind::kConst:
      out = ev.constant(e);
      break;
    case ExprKind::kVar: {
      const double bound =
          n.var_index < bindings.size()
              ? bindings[n.var_index]
              : std::numeric_limits<double>::quiet_NaN();
      out = ev.variable(e, bound);
      break;
    }
    case ExprKind::kNeg: {
      const V a = child(0);
      out = ev.neg(e, a);
      break;
    }
    case ExprKind::kAdd: {
      const V a = child(0);
      const V b = child(1);
      out = ev.add(e, a, b);
      break;
    }
    case ExprKind::kSub: {
      const V a = child(0);
      const V b = child(1);
      out = ev.sub(e, a, b);
      break;
    }
    case ExprKind::kMul: {
      const V a = child(0);
      const V b = child(1);
      out = ev.mul(e, a, b);
      break;
    }
    case ExprKind::kDiv: {
      const V a = child(0);
      const V b = child(1);
      out = ev.div(e, a, b);
      break;
    }
    case ExprKind::kSqrt: {
      const V a = child(0);
      out = ev.sqrt(e, a);
      break;
    }
    case ExprKind::kFma: {
      const V a = child(0);
      const V b = child(1);
      const V c = child(2);
      out = ev.fma(e, a, b, c);
      break;
    }
    case ExprKind::kCmpEq: {
      const V a = child(0);
      const V b = child(1);
      out = ev.cmp_eq(e, a, b);
      break;
    }
    case ExprKind::kCmpLt: {
      const V a = child(0);
      const V b = child(1);
      out = ev.cmp_lt(e, a, b);
      break;
    }
  }
  ev.on_result(e, out);
  return out;
}

}  // namespace fpq::ir
