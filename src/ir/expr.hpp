// fpq::ir — the unified expression IR: one tree, every evaluator.
//
// Every analysis in fpqual asks the same question — "what does THIS
// expression do under THAT arithmetic?" — so the expression itself is a
// first-class, shared data structure. An Expr is a value-semantic,
// hash-consed tree over binary64 constants and named variables; evaluation
// semantics live entirely outside the tree, in Evaluator implementations
// (evaluator.hpp) and in IR→IR rewrite passes (rewrite.hpp). The quiz
// ground-truth derivation, the emulated optimization pipeline, shadow
// execution, interval enclosure, and the workloads kernels all walk the
// same nodes.
//
// Hash consing: structurally identical trees share one immutable node, so
// structural equality is pointer equality and every subtree carries a
// stable 64-bit fingerprint.
//
// Trees hold programs; bindings hold data. Nodes are interned in a
// process-wide pool and live for the process lifetime, so the pool grows
// with the number of distinct program shapes only. A kernel therefore
// builds its tree from variables and passes the values it computes on as
// bindings; constants are the program's own literals (coefficients, step
// sizes), never data that changes from call to call.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "softfloat/value.hpp"

namespace fpq::ir {

/// Expression node kinds (exposed so analyzers can walk trees
/// structurally). kNeg is the IEEE sign-bit flip — distinct from
/// sub(0, x), which differs for x = ±0 — and is what contraction of
/// mul(a,b) - c rewrites the addend into.
enum class ExprKind {
  kConst,
  kVar,
  kNeg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kSqrt,
  kFma,
  kCmpEq,
  kCmpLt,
};

/// A value-semantic, hash-consed expression tree over binary64 values.
class Expr {
 public:
  /// Leaf constant.
  static Expr constant(double v);
  static Expr constant(softfloat::Float64 v);

  /// Leaf variable: `index` selects the slot in the bindings span an
  /// evaluator is given; `name` is for rendering only.
  static Expr variable(std::string name, std::uint32_t index);

  /// Sign-bit negation (never raises flags; not the same as 0 - x).
  static Expr neg(Expr a);

  static Expr add(Expr a, Expr b);
  static Expr sub(Expr a, Expr b);
  static Expr mul(Expr a, Expr b);
  static Expr div(Expr a, Expr b);
  static Expr sqrt(Expr a);
  /// Explicitly fused multiply-add (what IEEE 754-2008 added).
  static Expr fma(Expr a, Expr b, Expr c);

  /// IEEE comparisons as expression nodes, evaluating to 1.0 / 0.0:
  /// cmp_eq is the quiet ==, cmp_lt the signaling <.
  static Expr cmp_eq(Expr a, Expr b);
  static Expr cmp_lt(Expr a, Expr b);

  /// Convenience: left-to-right sum, as C source order implies. The list
  /// form sums literals; sum data by summing variables and binding it.
  /// Both throw std::invalid_argument when empty.
  static Expr sum(std::initializer_list<double> xs);
  static Expr sum(std::span<const Expr> xs);

  /// Left-to-right dot product: ((x0*y0 + x1*y1) + x2*y2) + ... — the
  /// naive accumulation loop every workloads kernel used to hand-roll.
  /// Throws std::invalid_argument when the spans are empty or differ in
  /// length.
  static Expr dot(std::span<const Expr> xs, std::span<const Expr> ys);

  /// Horner evaluation of a polynomial, coefficients highest degree
  /// first: ((c0*x + c1)*x + c2)... A single coefficient is the constant
  /// polynomial; no coefficients throws std::invalid_argument.
  static Expr horner(std::span<const double> coeffs, Expr x);

  /// Renders the tree, e.g. "((a*b)+c)"; constants print as %g.
  std::string to_string() const;

  struct Node {
    ExprKind kind = ExprKind::kConst;
    softfloat::Float64 value;     ///< kConst payload
    std::uint32_t var_index = 0;  ///< kVar payload
    std::string var_name;         ///< kVar payload (rendering only)
    std::vector<Expr> children;
    std::uint64_t hash = 0;  ///< structural fingerprint (stable per run)
  };
  const Node& node() const { return *node_; }

  /// Structural fingerprint of this subtree; equal trees share it (and
  /// share the node itself). Memoization keys are built from this.
  std::uint64_t hash() const { return node_->hash; }

  /// Pointer identity IS structural equality, thanks to interning.
  friend bool operator==(const Expr& a, const Expr& b) {
    return a.node_.get() == b.node_.get();
  }

  /// Internal: wraps an interned node. Use the named factories instead.
  explicit Expr(std::shared_ptr<const Node> n) : node_(std::move(n)) {}

  /// Number of nodes currently interned (observability for tests/benches).
  static std::size_t intern_pool_size();

 private:
  std::shared_ptr<const Node> node_;
};

}  // namespace fpq::ir
