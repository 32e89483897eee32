#include "analyze/shadow.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ir/evaluator.hpp"
#include "softfloat/ops.hpp"

namespace fpq::shadow {

namespace {

namespace bf = fpq::bigfloat;
namespace sf = fpq::softfloat;

// The high-precision value domain alone: BigFloat at one precision,
// round-to-nearest-even at every node.
class ValueEvaluator final : public ir::Evaluator<bf::BigFloat> {
 public:
  explicit ValueEvaluator(unsigned precision) { ctx_.precision = precision; }

  const bf::Context& ctx() const noexcept { return ctx_; }

  bf::BigFloat constant(const ir::Expr& e) override {
    return bf::BigFloat::from_double(sf::to_native(e.node().value));
  }
  bf::BigFloat variable(const ir::Expr& e, double bound) override {
    (void)e;
    return bf::BigFloat::from_double(bound);
  }
  bf::BigFloat neg(const ir::Expr& e, const bf::BigFloat& a) override {
    (void)e;
    return a.negated();
  }
  bf::BigFloat add(const ir::Expr& e, const bf::BigFloat& a,
                   const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::add(a, b, ctx_);
  }
  bf::BigFloat sub(const ir::Expr& e, const bf::BigFloat& a,
                   const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::sub(a, b, ctx_);
  }
  bf::BigFloat mul(const ir::Expr& e, const bf::BigFloat& a,
                   const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::mul(a, b, ctx_);
  }
  bf::BigFloat div(const ir::Expr& e, const bf::BigFloat& a,
                   const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::div(a, b, ctx_);
  }
  bf::BigFloat sqrt(const ir::Expr& e, const bf::BigFloat& a) override {
    (void)e;
    return bf::BigFloat::sqrt(a, ctx_);
  }
  bf::BigFloat fma(const ir::Expr& e, const bf::BigFloat& a,
                   const bf::BigFloat& b, const bf::BigFloat& c) override {
    (void)e;
    return bf::BigFloat::fma(a, b, c, ctx_);
  }
  bf::BigFloat cmp_eq(const ir::Expr& e, const bf::BigFloat& a,
                      const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::from_int(bf::BigFloat::compare(a, b) == 0 ? 1 : 0);
  }
  bf::BigFloat cmp_lt(const ir::Expr& e, const bf::BigFloat& a,
                      const bf::BigFloat& b) override {
    (void)e;
    return bf::BigFloat::from_int(bf::BigFloat::compare(a, b) == -1 ? 1 : 0);
  }

 private:
  bf::Context ctx_;
};

// The shadow value domain: binary64 and high-precision, side by side.
struct NodeValues {
  double d = 0.0;        // binary64 value at this node
  bf::BigFloat shadow;   // high-precision value at this node
};

// One ir::Evaluator computes both executions in lock-step and files the
// findings as it goes: cancellation inside the add/sub hook (it needs the
// operands), format-induced-exception and relative-error checks in
// on_result (they apply to every node). The high-precision half is
// ValueEvaluator's.
class ShadowEvaluator final : public ir::Evaluator<NodeValues> {
 public:
  ShadowEvaluator(const Config& config, std::vector<Finding>& findings)
      : config_(config), findings_(findings), exact_(config.precision) {}

  const bf::Context& ctx() const noexcept { return exact_.ctx(); }

  NodeValues constant(const ir::Expr& e) override {
    return {sf::to_native(e.node().value), exact_.constant(e)};
  }
  NodeValues variable(const ir::Expr& e, double bound) override {
    return {bound, exact_.variable(e, bound)};
  }
  NodeValues neg(const ir::Expr& e, const NodeValues& a) override {
    return {sf::to_native(sf::from_native(a.d).negated()),
            exact_.neg(e, a.shadow)};
  }
  NodeValues add(const ir::Expr& e, const NodeValues& a,
                 const NodeValues& b) override {
    return add_sub(e, a, b, /*subtract=*/false);
  }
  NodeValues sub(const ir::Expr& e, const NodeValues& a,
                 const NodeValues& b) override {
    return add_sub(e, a, b, /*subtract=*/true);
  }
  NodeValues mul(const ir::Expr& e, const NodeValues& a,
                 const NodeValues& b) override {
    sf::Env env;  // per-node binary64 evaluation (strict IEEE)
    return {sf::to_native(
                sf::mul(sf::from_native(a.d), sf::from_native(b.d), env)),
            exact_.mul(e, a.shadow, b.shadow)};
  }
  NodeValues div(const ir::Expr& e, const NodeValues& a,
                 const NodeValues& b) override {
    sf::Env env;
    return {sf::to_native(
                sf::div(sf::from_native(a.d), sf::from_native(b.d), env)),
            exact_.div(e, a.shadow, b.shadow)};
  }
  NodeValues sqrt(const ir::Expr& e, const NodeValues& a) override {
    sf::Env env;
    return {sf::to_native(sf::sqrt(sf::from_native(a.d), env)),
            exact_.sqrt(e, a.shadow)};
  }
  NodeValues fma(const ir::Expr& e, const NodeValues& a,
                 const NodeValues& b, const NodeValues& c) override {
    sf::Env env;
    return {sf::to_native(sf::fma(sf::from_native(a.d),
                                  sf::from_native(b.d),
                                  sf::from_native(c.d), env)),
            exact_.fma(e, a.shadow, b.shadow, c.shadow)};
  }
  NodeValues cmp_eq(const ir::Expr& e, const NodeValues& a,
                    const NodeValues& b) override {
    sf::Env env;
    const bool d_eq =
        sf::equal(sf::from_native(a.d), sf::from_native(b.d), env);
    return {d_eq ? 1.0 : 0.0, exact_.cmp_eq(e, a.shadow, b.shadow)};
  }
  NodeValues cmp_lt(const ir::Expr& e, const NodeValues& a,
                    const NodeValues& b) override {
    sf::Env env;
    const bool d_lt =
        sf::less(sf::from_native(a.d), sf::from_native(b.d), env);
    return {d_lt ? 1.0 : 0.0, exact_.cmp_lt(e, a.shadow, b.shadow)};
  }

  void on_result(const ir::Expr& e, const NodeValues& out) override {
    // Format-induced exceptional values: binary64 went NaN/inf where the
    // high-precision value is an ordinary number.
    const bool d_exceptional = std::isnan(out.d) || std::isinf(out.d);
    const bool s_exceptional =
        out.shadow.is_nan() || out.shadow.is_infinity();
    if (d_exceptional && !s_exceptional) {
      Finding f;
      f.expression = e.to_string();
      f.reason =
          std::isnan(out.d)
              ? "binary64 produced NaN where the exact value is finite"
              : "binary64 overflowed where the exact value is finite";
      f.double_value = out.d;
      f.shadow_value = out.shadow.to_double();
      f.relative_error = std::numeric_limits<double>::infinity();
      findings_.push_back(std::move(f));
    } else if (!d_exceptional && !s_exceptional && out.d != 0.0) {
      const double rel = bf::relative_error(out.d, out.shadow, ctx());
      if (rel > config_.relative_error_threshold) {
        Finding f;
        f.expression = e.to_string();
        char buf[48];
        std::snprintf(buf, sizeof buf, "relative error %.3g", rel);
        f.reason = buf;
        f.double_value = out.d;
        f.shadow_value = out.shadow.to_double();
        f.relative_error = rel;
        findings_.push_back(std::move(f));
      }
    }
  }

 private:
  NodeValues add_sub(const ir::Expr& e, const NodeValues& a,
                     const NodeValues& b, bool subtract) {
    sf::Env env;
    NodeValues out;
    out.d = subtract
                ? sf::to_native(sf::sub(sf::from_native(a.d),
                                        sf::from_native(b.d), env))
                : sf::to_native(sf::add(sf::from_native(a.d),
                                        sf::from_native(b.d), env));
    out.shadow = subtract ? exact_.sub(e, a.shadow, b.shadow)
                          : exact_.add(e, a.shadow, b.shadow);
    // Cancellation: the result's magnitude collapsed far below the
    // larger operand's — leading bits annihilated, relative precision
    // amplified.
    if (a.shadow.is_finite() && !a.shadow.is_zero() &&
        b.shadow.is_finite() && !b.shadow.is_zero() &&
        out.shadow.is_finite() && !out.shadow.is_zero()) {
      const std::int64_t in_msb =
          std::max(a.shadow.msb_exponent(), b.shadow.msb_exponent());
      const std::int64_t lost = in_msb - out.shadow.msb_exponent();
      if (lost >= config_.cancellation_bits_threshold) {
        Finding f;
        f.expression = e.to_string();
        f.reason =
            "cancellation of " + std::to_string(lost) + " leading bits";
        f.double_value = out.d;
        f.shadow_value = out.shadow.to_double();
        f.cancelled_bits = static_cast<int>(lost);
        f.relative_error = bf::relative_error(out.d, out.shadow, ctx());
        findings_.push_back(std::move(f));
      }
    }
    return out;
  }

  const Config& config_;
  std::vector<Finding>& findings_;
  ValueEvaluator exact_;
};

}  // namespace

Report analyze(const ir::Expr& expr, const Config& config,
               std::span<const double> bindings) {
  Report report;
  std::vector<Finding> findings;
  ShadowEvaluator evaluator(config, findings);

  const NodeValues top =
      ir::evaluate_tree<NodeValues>(expr, evaluator, bindings);
  report.double_result = top.d;
  report.shadow_result = top.shadow.to_double();
  report.double_is_exceptional =
      std::isnan(top.d) || std::isinf(top.d);
  report.shadow_is_exceptional =
      top.shadow.is_nan() || top.shadow.is_infinity();
  report.format_induced_exception =
      report.double_is_exceptional && !report.shadow_is_exceptional;
  report.relative_error =
      bf::relative_error(top.d, top.shadow, evaluator.ctx());

  // Worst first, NaN (binary64 lost the value entirely) worst of all;
  // ties keep discovery order.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (std::isnan(b.relative_error)) return false;
                     if (std::isnan(a.relative_error)) return true;
                     return a.relative_error > b.relative_error;
                   });
  report.findings = std::move(findings);
  return report;
}

bf::BigFloat value(const ir::Expr& expr, unsigned precision,
                   std::span<const double> bindings) {
  ValueEvaluator evaluator(precision);
  return ir::evaluate_tree<bf::BigFloat>(expr, evaluator, bindings);
}

std::string render(const Report& report) {
  std::string out = "shadow-execution analysis\n";
  char line[160];
  std::snprintf(line, sizeof line, "  binary64 result:       %.17g\n",
                report.double_result);
  out += line;
  std::snprintf(line, sizeof line, "  high-precision result: %.17g\n",
                report.shadow_result);
  out += line;
  std::snprintf(line, sizeof line, "  relative error:        %.3g\n",
                report.relative_error);
  out += line;
  if (report.format_induced_exception) {
    out +=
        "  VERDICT: binary64 produced an exceptional value the mathematics "
        "does not contain — maximum suspicion\n";
  } else if (!report.findings.empty()) {
    out += "  VERDICT: suspicious nodes found\n";
  } else {
    out += "  VERDICT: clean at this precision\n";
  }
  for (const auto& f : report.findings) {
    out += "  - " + f.expression + ": " + f.reason;
    std::snprintf(line, sizeof line, " (double %.9g, shadow %.9g)\n",
                  f.double_value, f.shadow_value);
    out += line;
  }
  return out;
}

}  // namespace fpq::shadow
