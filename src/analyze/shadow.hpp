// fpq::shadow — shadow execution: binary64 next to arbitrary precision.
//
// The second tool the paper's §V asks for: "static and dynamic analysis
// tools that can examine existing codebases and point developers to
// potentially suspicious code." This module re-executes an fpq::ir
// expression tree in strict-IEEE binary64 AND in high-precision BigFloat
// arithmetic — one ir::Evaluator whose value domain is the PAIR of both
// results — then reports, per node:
//
//   * the relative error the double-precision path accumulated,
//   * catastrophic cancellation (additions/subtractions whose result
//     exponent collapses far below the operands'),
//   * exceptional events the high-precision path did NOT produce
//     (overflow/invalid manufactured purely by the format's limits).
//
// A flagged node is "potentially suspicious code" in exactly the paper's
// sense. value() is the high-precision half alone, for callers that only
// compare a result against the trusted one (the fault gauntlet's shadow
// detector).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bigfloat/bigfloat.hpp"
#include "ir/expr.hpp"

namespace fpq::shadow {

/// Analysis knobs.
struct Config {
  unsigned precision = 256;          ///< shadow significand bits
  double relative_error_threshold = 1e-6;  ///< flag nodes above this
  int cancellation_bits_threshold = 20;    ///< flag add/sub losing >= this
};

/// One flagged location.
struct Finding {
  std::string expression;    ///< rendering of the offending subtree
  std::string reason;        ///< "cancellation of 31 bits", ...
  double double_value = 0.0; ///< what binary64 computed there
  double shadow_value = 0.0; ///< the high-precision value (rounded)
  double relative_error = 0.0;
  int cancelled_bits = 0;
};

/// Whole-expression verdict.
struct Report {
  double double_result = 0.0;   ///< the binary64 answer
  double shadow_result = 0.0;   ///< the trusted answer (rounded to double)
  double relative_error = 0.0;  ///< |double - shadow| / |shadow|
  bool double_is_exceptional = false;  ///< NaN/inf in binary64
  bool shadow_is_exceptional = false;  ///< NaN/inf even at high precision
  /// Exceptional in binary64 but NOT at high precision: the format, not
  /// the mathematics, produced the NaN/inf — maximum suspicion.
  bool format_induced_exception = false;
  std::vector<Finding> findings;  ///< suspicious nodes, worst first
  bool suspicious() const noexcept {
    return format_induced_exception || !findings.empty();
  }
};

/// Runs the analysis on an ir::Expr tree (opt::Expr is the same type).
/// `bindings` feeds any kVar nodes in the tree, row-major by var_index.
Report analyze(const ir::Expr& expr, const Config& config = {},
               std::span<const double> bindings = {});

/// Only the high-precision value: every node evaluated in BigFloat at
/// `precision` bits, round-to-nearest-even — the value analyze() reports
/// as shadow_result, without the binary64 run or the per-node findings.
bigfloat::BigFloat value(const ir::Expr& expr, unsigned precision,
                         std::span<const double> bindings = {});

/// Human-readable rendering of a report.
std::string render(const Report& report);

}  // namespace fpq::shadow
