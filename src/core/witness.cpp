#include "core/witness.hpp"

#include <array>
#include <cassert>
#include <cstdio>
#include <span>

#include "ir/expr.hpp"
#include "optprobe/emulated_pipeline.hpp"
#include "optprobe/flag_audit.hpp"
#include "optprobe/mxcsr.hpp"

namespace fpq::quiz {

namespace {

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Every demonstration's arithmetic is an fpq::ir tree executed on the
// backend through quiz::run; only the sweep loops and verdict branches
// stay in C++. `ev` is the value-only evaluation entry point.
double ev(const Backend& b, const ir::Expr& e,
          std::initializer_list<double> binds = {}) {
  return run(b, e, std::span<const double>(binds.begin(), binds.size()))
      .value;
}

// Directed operand pool: interesting magnitudes canonicalized into the
// backend's format (so the binary16 backend sweeps binary16 values).
std::array<double, 12> operand_pool(const Backend& b) {
  return {canonicalize(b, 0.0),       canonicalize(b, -0.0),
          canonicalize(b, 1.0),       canonicalize(b, -1.0),
          canonicalize(b, 0.1),       canonicalize(b, -3.5),
          canonicalize(b, 7.25),      canonicalize(b, 1000.0),
          canonicalize(b, 1.0 / 3.0), canonicalize(b, -0.001),
          max_finite(b),              min_normal(b)};
}

Demonstration demo_commutativity(const Backend& b) {
  const auto pool = operand_pool(b);
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  const ir::Expr add_xy = ir::Expr::add(x, y);
  const ir::Expr mul_xy = ir::Expr::mul(x, y);
  for (double xv : pool) {
    for (double yv : pool) {
      if (!equal(b, ev(b, add_xy, {xv, yv}), ev(b, add_xy, {yv, xv})) ||
          !equal(b, ev(b, mul_xy, {xv, yv}), ev(b, mul_xy, {yv, xv}))) {
        return {Truth::kFalse, "counterexample: x=" + num(xv) +
                                   " y=" + num(yv) +
                                   " (commutativity violated?!)"};
      }
    }
  }
  return {Truth::kTrue,
          "swept " + std::to_string(pool.size() * pool.size()) +
              " directed pairs incl. zeros and extremes: x+y == y+x and "
              "x*y == y*x throughout"};
}

Demonstration demo_associativity(const Backend& b) {
  const ir::Expr a = ir::Expr::variable("a", 0);
  const ir::Expr n = ir::Expr::variable("n", 1);
  const ir::Expr one_c = ir::Expr::constant(1.0);
  const ir::Expr neg_tree = ir::Expr::sub(ir::Expr::constant(0.0), a);
  const ir::Expr left_tree = ir::Expr::add(ir::Expr::add(a, n), one_c);
  const ir::Expr right_tree = ir::Expr::add(a, ir::Expr::add(n, one_c));
  const ir::Expr grow = ir::Expr::mul(a, ir::Expr::constant(2.0));
  const ir::Expr doubled = ir::Expr::add(a, a);
  // Walk 2^k until the rounding of (big + 1) eats the 1.
  double big = canonicalize(b, 2.0);
  for (int k = 1; k < 1100; ++k) {
    const double neg = ev(b, neg_tree, {big});             // -big
    const double left = ev(b, left_tree, {big, neg});      // (a+b)+c = 1
    const double right = ev(b, right_tree, {big, neg});    // a+(b+c)
    if (!equal(b, left, right)) {
      return {Truth::kFalse,
              "counterexample: a=" + num(big) + " b=" + num(-big) +
                  " c=1: (a+b)+c = " + num(left) +
                  " but a+(b+c) = " + num(right)};
    }
    big = ev(b, grow, {big});
    if (equal(b, big, ev(b, doubled, {big}))) break;  // saturated at inf
  }
  return {Truth::kTrue, "no counterexample found (unexpected)"};
}

Demonstration demo_distributivity(const Backend& b) {
  // a*(b+c) vs a*b + a*c with a = max_finite, b = 2, c = -2:
  // the left side is exactly 0 while the right side overflows both
  // products and collapses to inf + (-inf) = invalid.
  const ir::Expr x = ir::Expr::variable("a", 0);
  const ir::Expr two = ir::Expr::constant(2.0);
  const ir::Expr neg_two = ir::Expr::constant(-2.0);
  const double a = max_finite(b);
  const double lhs = ev(b, ir::Expr::mul(x, ir::Expr::add(two, neg_two)),
                        {a});
  const double rhs =
      ev(b, ir::Expr::add(ir::Expr::mul(x, two), ir::Expr::mul(x, neg_two)),
         {a});
  if (!equal(b, lhs, rhs)) {
    return {Truth::kFalse,
            "counterexample: a=max_finite, b=2, c=-2: a*(b+c) = 0 but "
            "a*b + a*c = inf + (-inf) = invalid"};
  }
  // Fallback: rounding-level counterexample sweep.
  const ir::Expr vy = ir::Expr::variable("b", 1);
  const ir::Expr vz = ir::Expr::variable("c", 2);
  const ir::Expr l_tree = ir::Expr::mul(x, ir::Expr::add(vy, vz));
  const ir::Expr r_tree =
      ir::Expr::add(ir::Expr::mul(x, vy), ir::Expr::mul(x, vz));
  const auto pool = operand_pool(b);
  for (double xv : pool) {
    for (double yv : pool) {
      for (double zv : pool) {
        const double l = ev(b, l_tree, {xv, yv, zv});
        const double r = ev(b, r_tree, {xv, yv, zv});
        if (!equal(b, l, r)) {
          return {Truth::kFalse, "counterexample: a=" + num(xv) +
                                     " b=" + num(yv) + " c=" + num(zv)};
        }
      }
    }
  }
  return {Truth::kTrue, "no counterexample found (unexpected)"};
}

Demonstration demo_ordering(const Backend& b) {
  const ir::Expr a = ir::Expr::variable("a", 0);
  const ir::Expr recovered_tree =
      ir::Expr::sub(ir::Expr::add(a, ir::Expr::constant(1.0)), a);
  const ir::Expr grow = ir::Expr::mul(a, ir::Expr::constant(2.0));
  const ir::Expr doubled = ir::Expr::add(a, a);
  const double one = canonicalize(b, 1.0);
  double big = canonicalize(b, 2.0);
  for (int k = 1; k < 1100; ++k) {
    const double recovered = ev(b, recovered_tree, {big});
    if (!equal(b, recovered, one)) {
      return {Truth::kFalse, "counterexample: a=" + num(big) +
                                 " b=1: ((a+b)-a) = " + num(recovered) +
                                 " != 1"};
    }
    big = ev(b, grow, {big});
    if (equal(b, big, ev(b, doubled, {big}))) break;
  }
  return {Truth::kTrue, "no counterexample found (unexpected)"};
}

Demonstration demo_identity(const Backend& b) {
  const double nan = ev(
      b, ir::Expr::div(ir::Expr::constant(0.0), ir::Expr::constant(0.0)));
  if (!equal(b, nan, nan)) {
    return {Truth::kFalse,
            "counterexample: a = 0.0/0.0 gives a == a false"};
  }
  return {Truth::kTrue, "a == a held even for 0.0/0.0 (unexpected)"};
}

Demonstration demo_negative_zero(const Backend& b) {
  const double pz = canonicalize(b, 0.0);
  const double nz = canonicalize(b, -0.0);
  if (equal(b, pz, nz)) {
    return {Truth::kFalse,
            "+0 == -0 compares true: two zeros are never unequal"};
  }
  return {Truth::kTrue, "+0 != -0 on this backend (non-IEEE behavior!)"};
}

Demonstration demo_square(const Backend& b) {
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr sq_tree = ir::Expr::mul(x, x);
  const auto pool = operand_pool(b);
  for (double xv : pool) {
    const double sq = ev(b, sq_tree, {xv});
    if (less(b, sq, canonicalize(b, 0.0)) || !equal(b, sq, sq)) {
      return {Truth::kFalse, "counterexample: x=" + num(xv)};
    }
  }
  // Overflowing square saturates at +inf, still >= 0.
  const double big_sq = ev(b, sq_tree, {max_finite(b)});
  if (less(b, big_sq, canonicalize(b, 0.0))) {
    return {Truth::kFalse, "max_finite^2 came out negative (wrapped?)"};
  }
  return {Truth::kTrue,
          "squares of directed values (incl. max_finite, whose square "
          "saturates at +inf) all compare >= 0"};
}

Demonstration demo_overflow(const Backend& b) {
  const ir::Expr a = ir::Expr::variable("a", 0);
  const double doubled = ev(b, ir::Expr::add(a, a), {max_finite(b)});
  if (less(b, doubled, canonicalize(b, 0.0))) {
    return {Truth::kTrue,
            "max_finite + max_finite wrapped to a negative value"};
  }
  return {Truth::kFalse, "max_finite + max_finite = " + num(doubled) +
                             ": saturates at +infinity, no wrap-around"};
}

Demonstration demo_divide_by_zero(const Backend& b) {
  const double r = ev(
      b, ir::Expr::div(ir::Expr::constant(1.0), ir::Expr::constant(0.0)));
  if (equal(b, r, r)) {
    return {Truth::kTrue, "1.0/0.0 = " + num(r) +
                              ": an infinity — an ordinary comparable "
                              "value, not an invalid result"};
  }
  return {Truth::kFalse, "1.0/0.0 produced an invalid result (unexpected)"};
}

Demonstration demo_zero_divide_by_zero(const Backend& b) {
  const double r = ev(
      b, ir::Expr::div(ir::Expr::constant(0.0), ir::Expr::constant(0.0)));
  if (!equal(b, r, r)) {
    return {Truth::kFalse,
            "0.0/0.0 is an invalid result (it compares unequal to "
            "itself), so the assertion that it is a non-invalid value is "
            "false"};
  }
  return {Truth::kTrue, "0.0/0.0 compared equal to itself (unexpected)"};
}

Demonstration demo_saturation_plus(const Backend& b) {
  const ir::Expr a = ir::Expr::variable("a", 0);
  const ir::Expr plus_one = ir::Expr::add(a, ir::Expr::constant(1.0));
  const double inf = ev(
      b, ir::Expr::div(ir::Expr::constant(1.0), ir::Expr::constant(0.0)));
  if (equal(b, ev(b, plus_one, {inf}), inf)) {
    return {Truth::kTrue,
            "witness: a = +infinity has (a + 1.0) == a; also a = "
            "max_finite (" +
                num(max_finite(b)) + ") where 1.0 is below half an ulp"};
  }
  if (equal(b, ev(b, plus_one, {max_finite(b)}), max_finite(b))) {
    return {Truth::kTrue, "witness: a = max_finite absorbs + 1.0"};
  }
  return {Truth::kFalse, "no witness found (unexpected)"};
}

Demonstration demo_saturation_minus(const Backend& b) {
  const ir::Expr a = ir::Expr::variable("a", 0);
  const ir::Expr minus_one = ir::Expr::sub(a, ir::Expr::constant(1.0));
  const double inf = ev(
      b, ir::Expr::div(ir::Expr::constant(1.0), ir::Expr::constant(0.0)));
  if (equal(b, ev(b, minus_one, {inf}), inf)) {
    return {Truth::kTrue,
            "witness: a = +infinity has (a - 1.0) == a — you cannot back "
            "off from an infinity"};
  }
  return {Truth::kFalse, "no witness found (unexpected)"};
}

Demonstration demo_denormal_precision(const Backend& b) {
  const double tiny = min_subnormal(b);
  if (equal(b, tiny, canonicalize(b, 0.0))) {
    return {Truth::kTrue,
            "this backend flushes the sub-normal range entirely to zero "
            "(FTZ/DAZ): near zero there is not merely less precision but "
            "none at all"};
  }
  // At normal scale x * 1.75 is exact; at the bottom of the subnormal
  // range the same multiply must round (only 1 significand bit is left).
  const double scale = canonicalize(b, 1.75);
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr ratio_tree = ir::Expr::div(
      ir::Expr::mul(x, ir::Expr::constant(1.75)), x);
  const double near_zero_ratio = ev(b, ratio_tree, {tiny});
  const double normal_ratio = ev(b, ratio_tree, {canonicalize(b, 1.0)});
  if (equal(b, normal_ratio, scale) && !equal(b, near_zero_ratio, scale)) {
    return {Truth::kTrue,
            "witness: x*1.75/x == 1.75 at x = 1.0 but == " +
                num(near_zero_ratio) +
                " at x = min_subnormal — significand bits vanish near "
                "zero (gradual underflow)"};
  }
  return {Truth::kFalse,
          "no precision loss observed near zero (unexpected)"};
}

Demonstration demo_operation_precision(const Backend& b) {
  const RunResult r = run(
      b, ir::Expr::div(ir::Expr::constant(1.0), ir::Expr::constant(3.0)));
  if (r.conditions.test(mon::Condition::kPrecision)) {
    return {Truth::kTrue, "witness: 1.0/3.0 = " + num(r.value) +
                              " required rounding (inexact was raised): "
                              "the result has less precision than the "
                              "exact quotient"};
  }
  return {Truth::kFalse, "1.0/3.0 was exact on this backend (unexpected)"};
}

Demonstration demo_exception_signal(const Backend& b) {
  mon::ConditionSet seen =
      run(b, ir::Expr::div(ir::Expr::constant(0.0), ir::Expr::constant(0.0)))
          .conditions;
  seen.merge(
      run(b, ir::Expr::div(ir::Expr::constant(1.0), ir::Expr::constant(0.0)))
          .conditions);
  // We are demonstrably still executing: no signal/trap was delivered.
  if (seen.test(mon::Condition::kInvalid) &&
      seen.test(mon::Condition::kDivByZero)) {
    return {Truth::kFalse,
            "witness: 0.0/0.0 and 1.0/0.0 both executed; only sticky "
            "status flags recorded the events (" +
                seen.to_string() +
                ") and execution continued with no signal"};
  }
  return {Truth::kFalse,
          "no signal was delivered (and this backend did not even record "
          "flags)"};
}

}  // namespace

Demonstration demonstrate_core(CoreQuestionId id,
                               const Backend& backend) {
  switch (id) {
    case CoreQuestionId::kCommutativity:
      return demo_commutativity(backend);
    case CoreQuestionId::kAssociativity:
      return demo_associativity(backend);
    case CoreQuestionId::kDistributivity:
      return demo_distributivity(backend);
    case CoreQuestionId::kOrdering:
      return demo_ordering(backend);
    case CoreQuestionId::kIdentity:
      return demo_identity(backend);
    case CoreQuestionId::kNegativeZero:
      return demo_negative_zero(backend);
    case CoreQuestionId::kSquare:
      return demo_square(backend);
    case CoreQuestionId::kOverflow:
      return demo_overflow(backend);
    case CoreQuestionId::kDivideByZero:
      return demo_divide_by_zero(backend);
    case CoreQuestionId::kZeroDivideByZero:
      return demo_zero_divide_by_zero(backend);
    case CoreQuestionId::kSaturationPlus:
      return demo_saturation_plus(backend);
    case CoreQuestionId::kSaturationMinus:
      return demo_saturation_minus(backend);
    case CoreQuestionId::kDenormalPrecision:
      return demo_denormal_precision(backend);
    case CoreQuestionId::kOperationPrecision:
      return demo_operation_precision(backend);
    case CoreQuestionId::kExceptionSignal:
      return demo_exception_signal(backend);
  }
  assert(false && "unknown core question");
  return {};
}

Demonstration demonstrate_opt(OptQuestionId id) {
  namespace opt = fpq::opt;
  switch (id) {
    case OptQuestionId::kMadd: {
      const auto d = opt::diverge(opt::demo_contraction_sensitive(),
                                  opt::PipelineConfig::o3_like());
      std::string w =
          "fused multiply-add is IEEE 754-2008 (not 754-1985); "
          "demonstrated divergence: contracting x*x - round(x*x) changed "
          "the result from exactly 0 to the multiply's rounding error";
      if (!d.value_differs) w += " (divergence NOT observed — unexpected)";
      return {Truth::kFalse, std::move(w)};
    }
    case OptQuestionId::kFlushToZero: {
      opt::PipelineConfig ftz;
      ftz.flush_to_zero = true;
      const auto d = opt::diverge(opt::demo_flush_sensitive(), ftz);
      const auto hw = opt::probe_flush_modes();
      std::string w =
          "FTZ/DAZ are outside the standard; demonstrated: (min_normal * "
          "0.5) * 2 is min_normal under IEEE gradual underflow but 0 "
          "under FTZ";
      if (hw.mxcsr_available && hw.ftz_flushes_results) {
        w += "; reproduced live on this host's MXCSR FTZ bit";
      }
      if (!d.value_differs) w += " (divergence NOT observed — unexpected)";
      return {Truth::kFalse, std::move(w)};
    }
    case OptQuestionId::kStandardCompliantLevel: {
      return {Truth::kFalse,
              std::string("flag audit: highest compliant level is ") +
                  std::string(opt::highest_compliant_opt_level()) +
                  "; -O3 enables contraction"};
    }
    case OptQuestionId::kFastMath: {
      const auto d = opt::diverge(opt::demo_reassociation_sensitive(),
                                  opt::PipelineConfig::fast_math_like());
      std::string w =
          "demonstrated: reassociating 1e16 + 1 + ... + 1 changes the sum";
      if (!d.value_differs) w += " (divergence NOT observed — unexpected)";
      return {Truth::kTrue, std::move(w)};
    }
  }
  assert(false && "unknown optimization question");
  return {};
}

}  // namespace fpq::quiz
