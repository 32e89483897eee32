// fpq::quiz — the arithmetic backends the quiz is run against.
//
// A backend is "a floating point implementation the quiz can be run
// against": host hardware in double or float, or the softfloat engine in
// any of its formats and (non-standard) flush modes. Ground truths are
// *derived by execution* on a backend, so the answer key is demonstrated,
// not asserted — and running the derivation on a non-IEEE backend (FTZ)
// shows exactly which answers silently change on such hardware.
//
// A backend is a plain registry row. `run` executes an fpq::ir tree on
// the IR evaluator for that row's substrate: SoftEvaluator<k> for
// softfloat rows, NativeEvaluator<double>/<float> for host rows. The
// value model is host double: operands round into the row's format on
// entry and results widen back exactly, so one routine serves every
// precision.
#pragma once

#include <span>
#include <string_view>

#include "fpmon/monitor.hpp"
#include "ir/expr.hpp"

namespace fpq::quiz {

/// One row of the backend catalogue.
struct Backend {
  const char* name;        ///< display name, unique across the registry
  int format_bits;         ///< 64, 32, 16, or softfloat::kBFloat16
  bool native;             ///< host FPU instead of the softfloat engine
  bool flush_to_zero;
  bool denormals_are_zero;

  /// True when the backend implements IEEE-standard semantics (no flush
  /// modes); the answer-key invariance tests quantify over these.
  bool ieee_compliant() const noexcept {
    return !flush_to_zero && !denormals_are_zero;
  }
};

/// The full catalogue: native binary64/32, softfloat binary64/32/16 and
/// bfloat16, then softfloat binary64 with FTZ+DAZ.
std::span<const Backend> backend_registry();

/// The registry row named `name`; throws std::out_of_range if none is.
const Backend& find_backend(std::string_view name);

/// What one evaluation produced: the widened value and the exceptional
/// conditions the whole evaluation raised.
struct RunResult {
  double value;
  mon::ConditionSet conditions;
};

/// Evaluates `expr` on `backend`; `bindings` feeds kVar nodes by
/// var_index. Softfloat rows report the Outcome's sticky flags; native
/// rows run under one fpmon::ScopedMonitor.
RunResult run(const Backend& backend, const ir::Expr& expr,
              std::span<const double> bindings = {});

// IEEE comparison semantics in the backend's format.
bool equal(const Backend& backend, double a, double b);
bool less(const Backend& backend, double a, double b);

/// Rounds a host double into the backend's format (identity for binary64
/// backends). Lets callers construct "what the backend sees".
double canonicalize(const Backend& backend, double x);

// Named values of the backend's format, widened to double.
double max_finite(const Backend& backend);
double min_normal(const Backend& backend);
double min_subnormal(const Backend& backend);

}  // namespace fpq::quiz
