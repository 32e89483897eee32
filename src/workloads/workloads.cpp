#include "workloads/workloads.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ir/evaluators.hpp"
#include "ir/expr.hpp"

namespace fpq::workloads {

double NativeContext::call(const ir::Expr& expr,
                           std::span<const double> bindings) {
  // NativeEvaluator<double> routes each operation through one opaque
  // host op, so the real FPU raises exceptions under the caller's monitor
  // exactly as a hand-rolled loop would. The tree walk executes every
  // source-level operation (a CSE/folded tape would elide real FPU ops a
  // monitor counts) and keeps no per-tree state.
  ir::NativeEvaluator<double> native;
  return ir::evaluate_tree<double>(expr, native, bindings);
}

namespace {

/// Observation-only evaluator decorator for FlowContext: forwards every
/// operation to the host evaluator (through its final type, so the calls
/// bind statically) and reports operand/result value classes to the
/// thread's FlowMonitor stack. No values change, no flags are touched —
/// classification is pure bit inspection.
class FlowEmittingEvaluator final : public ir::Evaluator<double> {
 public:
  FlowEmittingEvaluator(ir::NativeEvaluator<double>& inner,
                        std::uint64_t call)
      : inner_(&inner), call_(call) {}

  double constant(const ir::Expr& e) override { return inner_->constant(e); }
  double variable(const ir::Expr& e, double bound) override {
    return inner_->variable(e, bound);
  }
  double neg(const ir::Expr& e, const double& a) override {
    return emit1(inner_->neg(e, a), a, aux_next());
  }
  double add(const ir::Expr& e, const double& a, const double& b) override {
    return emit2(inner_->add(e, a, b), a, b, op_next());
  }
  double sub(const ir::Expr& e, const double& a, const double& b) override {
    return emit2(inner_->sub(e, a, b), a, b, op_next());
  }
  double mul(const ir::Expr& e, const double& a, const double& b) override {
    return emit2(inner_->mul(e, a, b), a, b, op_next());
  }
  double div(const ir::Expr& e, const double& a, const double& b) override {
    return emit2(inner_->div(e, a, b), a, b, op_next());
  }
  double sqrt(const ir::Expr& e, const double& a) override {
    return emit1(inner_->sqrt(e, a), a, op_next());
  }
  double fma(const ir::Expr& e, const double& a, const double& b,
             const double& c) override {
    const double r = inner_->fma(e, a, b, c);
    mon::FlowMonitor::on_op(op_next(), a, b, c, 3, r);
    return r;
  }
  double cmp_eq(const ir::Expr& e, const double& a,
                const double& b) override {
    return emit2(inner_->cmp_eq(e, a, b), a, b, aux_next());
  }
  double cmp_lt(const ir::Expr& e, const double& a,
                const double& b) override {
    return emit2(inner_->cmp_lt(e, a, b), a, b, aux_next());
  }

 private:
  std::uint64_t op_next() noexcept { return mon::flow_tag(call_, op_++); }
  std::uint64_t aux_next() noexcept {
    return mon::flow_tag(call_, mon::kFlowAuxBit | aux_++);
  }
  double emit1(double r, double a, std::uint64_t tag) {
    mon::FlowMonitor::on_op(tag, a, 0.0, 0.0, 1, r);
    return r;
  }
  double emit2(double r, double a, double b, std::uint64_t tag) {
    mon::FlowMonitor::on_op(tag, a, b, 0.0, 2, r);
    return r;
  }

  ir::NativeEvaluator<double>* inner_;
  std::uint64_t call_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t aux_ = 0;
};

}  // namespace

double FlowContext::call(const ir::Expr& expr,
                         std::span<const double> bindings) {
  const std::uint64_t call_index = call_++;
  ir::NativeEvaluator<double> native;
  if (!mon::FlowMonitor::thread_active()) {
    // Unmonitored fast path: identical to NativeContext (the call
    // counter still advances so tags stay aligned if a monitor attaches
    // mid-run).
    return ir::evaluate_tree<double>(expr, native, bindings);
  }
  FlowEmittingEvaluator flow(native, call_index);
  return ir::evaluate_tree<double>(expr, flow, bindings);
}

namespace {

using E = ir::Expr;

// Every kernel takes its execution context plus the scale knobs; the
// run()/probe() entry points below only differ in context and scale.

// -- ODE integration (Lorenz) ------------------------------------------

void lorenz(EvalContext& ctx, double dt, int steps) {
  const E x = E::variable("x", 0);
  const E y = E::variable("y", 1);
  const E z = E::variable("z", 2);
  const E dx = E::mul(E::constant(10.0), E::sub(y, x));
  const E dy = E::sub(E::mul(x, E::sub(E::constant(28.0), z)), y);
  const E dz = E::sub(E::mul(x, y), E::mul(E::constant(8.0 / 3.0), z));
  const E h = E::constant(dt);
  // One tree per state component: x' = x + dt*dx(x,y,z), built once and
  // re-evaluated each step with fresh bindings.
  const E xn = E::add(x, E::mul(h, dx));
  const E yn = E::add(y, E::mul(h, dy));
  const E zn = E::add(z, E::mul(h, dz));
  double xv = 1.0, yv = 1.0, zv = 1.0;
  for (int i = 0; i < steps; ++i) {
    const double nx = ctx.call(xn, {xv, yv, zv});
    const double ny = ctx.call(yn, {xv, yv, zv});
    const double nz = ctx.call(zn, {xv, yv, zv});
    xv = nx;
    yv = ny;
    zv = nz;
  }
}

void lorenz_healthy(EvalContext& c) { lorenz(c, 0.005, 5000); }
void lorenz_broken(EvalContext& c) { lorenz(c, 1.0, 100); }  // NaN blowup
void lorenz_healthy_probe(EvalContext& c) { lorenz(c, 0.005, 40); }
void lorenz_broken_probe(EvalContext& c) { lorenz(c, 1.0, 40); }

// -- Statistics: naive variance ------------------------------------------

void variance(EvalContext& ctx, double offset, int n) {
  // Naive sum-of-squares variance; with a huge offset the subtraction
  // E[x^2] - E[x]^2 cancels catastrophically and goes NEGATIVE (at
  // offset 1e12, n=7 the value is about -2.7e8), so the final sqrt of it
  // is an invalid operation.
  //
  // The trees are built from variables and the data arrives as bindings,
  // so every call shares one program shape whatever values (or injected
  // faults) flow through it.
  const E a = E::variable("a", 0);
  const E b = E::variable("b", 1);
  const E shifted = E::add(a, b);
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::vector<E> vars;  // x0 ... x{n-1}, bound to xs
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = ctx.call(shifted, {offset, 1e-8 * i});
    std::string name = "x";  // not "x" + to_string: GCC 12 -Wrestrict
    name += std::to_string(i);
    vars.push_back(E::variable(std::move(name), static_cast<std::uint32_t>(i)));
  }
  const double sum = ctx.call(E::sum(vars), xs);  // left-to-right chain
  const double sum_sq = ctx.call(E::dot(vars, vars), xs);  // naive squares
  const double mean = ctx.call(E::div(a, b), {sum, static_cast<double>(n)});
  const double var =
      ctx.call(E::sub(E::div(a, b),
                      E::mul(E::variable("m", 2), E::variable("m", 2))),
               {sum_sq, static_cast<double>(n), mean});
  (void)ctx.call(E::sqrt(a), {var});  // sqrt(negative) when cancellation bites
}

void variance_healthy(EvalContext& c) { variance(c, 0.0, 64); }
void variance_broken(EvalContext& c) { variance(c, 1e12, 7); }
void variance_healthy_probe(EvalContext& c) { variance(c, 0.0, 16); }
void variance_broken_probe(EvalContext& c) { variance(c, 1e12, 7); }

// -- Series summation -------------------------------------------------

void geometric_series(EvalContext& ctx, int terms) {
  // sum of (1/2)^k: converges cleanly to 2, only rounding occurs; the
  // terms are deliberately stopped before the subnormal range.
  const E s = E::variable("s", 0);
  const E t = E::variable("t", 1);
  const E accumulate = E::add(s, t);
  const E halve = E::mul(t, E::constant(0.5));
  double term = 1.0, sum = 0.0;
  for (int k = 0; k < terms; ++k) {
    sum = ctx.call(accumulate, {sum, term});
    term = ctx.call(halve, {0.0, term});
  }
  (void)sum;
}

void growing_series(EvalContext& ctx, int terms) {
  // Growing series without a bound check: overflows to +inf, then the
  // "normalization" inf/inf manufactures a NaN.
  const E s = E::variable("s", 0);
  const E t = E::variable("t", 1);
  const E accumulate = E::add(s, t);
  const E grow = E::mul(t, E::constant(10.0));
  double term = 1.0, sum = 0.0;
  for (int k = 0; k < terms; ++k) {
    sum = ctx.call(accumulate, {sum, term});
    term = ctx.call(grow, {0.0, term});
  }
  (void)ctx.call(E::div(s, t), {sum, term});  // inf / inf
}

void geometric_series_healthy(EvalContext& c) { geometric_series(c, 900); }
void geometric_series_broken(EvalContext& c) { growing_series(c, 800); }
void series_healthy_probe(EvalContext& c) { geometric_series(c, 120); }
// 10^k overflows binary64 just past k = 308; 320 terms guarantees the
// overflow AND the closing inf/inf even at probe scale.
void series_broken_probe(EvalContext& c) { growing_series(c, 320); }

// -- Geometry: normalizing a vector ----------------------------------

void normalize(EvalContext& ctx, double scale) {
  // Normalize (3s, 4s): naive |v| = sqrt(x^2 + y^2) squares first, so a
  // large scale overflows the squares even though the normalized result
  // (0.6, 0.8) is perfectly representable.
  const E s = E::variable("s", 0);
  const double x = ctx.call(E::mul(E::constant(3.0), s), {scale});
  const double y = ctx.call(E::mul(E::constant(4.0), s), {scale});
  const E a = E::variable("a", 0);
  const E b = E::variable("b", 1);
  const std::array<E, 2> v{a, b};
  const double len = ctx.call(E::sqrt(E::dot(v, v)), {x, y});
  (void)ctx.call(E::div(a, b), {x, len});
  (void)ctx.call(E::div(a, b), {y, len});
}

void normalize_healthy(EvalContext& c) { normalize(c, 1.0); }
void normalize_broken(EvalContext& c) { normalize(c, 1e200); }
void normalize_healthy_probe(EvalContext& c) { normalize(c, 1.0); }
void normalize_broken_probe(EvalContext& c) { normalize(c, 1e200); }

// -- Decay into the subnormal range ----------------------------------

void decay(EvalContext& ctx, int halvings) {
  // Exponential decay crossing into the subnormal range: denormal and
  // underflow traffic is EXPECTED here and is not a bug (the suspicion
  // quiz's point about Underflow/Denorm being usually benign).
  const E t = E::variable("t", 0);
  const E halve = E::mul(t, E::constant(0.5));
  double x = 1.0;
  for (int i = 0; i < halvings; ++i) x = ctx.call(halve, {x});
  (void)ctx.call(E::add(t, E::constant(1.0)), {x});
}

void decay_healthy(EvalContext& c) { decay(c, 1100); }
// The subnormal crossing needs ~1075 halvings; the probe cannot shrink
// below that without changing the contract.
void decay_healthy_probe(EvalContext& c) { decay(c, 1100); }

// -- Polynomial evaluation (Horner) -----------------------------------

void poly(EvalContext& ctx, std::span<const double> coeffs, double lo,
          double step, int n) {
  // Horner's rule as one IR tree in a free variable, swept over n points.
  const E p = E::horner(coeffs, E::variable("x", 0));
  for (int i = 0; i < n; ++i) {
    (void)ctx.call(p, {lo + step * i});
  }
}

void poly_healthy(EvalContext& ctx) {
  // Well-scaled cubic on [-1, 1]: rounding only.
  const std::array<double, 4> c{2.0, -3.0, 1.0, 5.0};
  poly(ctx, c, -1.0, 0.01, 201);
}

void poly_broken(EvalContext& ctx) {
  // Astronomically scaled coefficients: the leading term overflows at
  // moderate |x| although the polynomial's ROOTS are tame — the classic
  // un-normalized-model bug.
  const std::array<double, 3> c{1e300, 1e300, 1e300};
  poly(ctx, c, 1e4, 1e4, 10);
}

void poly_healthy_probe(EvalContext& ctx) {
  const std::array<double, 4> c{2.0, -3.0, 1.0, 5.0};
  poly(ctx, c, -1.0, 0.08, 25);
}

void poly_broken_probe(EvalContext& ctx) {
  const std::array<double, 3> c{1e300, 1e300, 1e300};
  poly(ctx, c, 1e4, 1e4, 10);
}

mon::ConditionSet set_of(std::initializer_list<mon::Condition> cs) {
  mon::ConditionSet out;
  for (auto c : cs) out.set(c);
  return out;
}

using C = mon::Condition;

const std::array<Workload, 11> kCatalogue{{
    {"lorenz/healthy",
     "Lorenz attractor, stable step size: rounding only",
     set_of({C::kPrecision}),
     set_of({C::kInvalid, C::kOverflow, C::kDivByZero}), &lorenz_healthy,
     &lorenz_healthy_probe},
    {"lorenz/broken",
     "Lorenz attractor, dt=1.0: divergence through overflow into NaN",
     set_of({C::kPrecision, C::kOverflow, C::kInvalid}), mon::ConditionSet{},
     &lorenz_broken, &lorenz_broken_probe},
    {"variance/healthy",
     "naive variance on small data: rounding only",
     set_of({C::kPrecision}), set_of({C::kInvalid, C::kOverflow}),
     &variance_healthy, &variance_healthy_probe},
    {"variance/broken",
     "naive variance with offset 1e12: cancellation drives the variance "
     "negative and sqrt of it invalid",
     set_of({C::kPrecision, C::kInvalid}), set_of({C::kOverflow}),
     &variance_broken, &variance_broken_probe},
    {"series/healthy",
     "geometric series 1/2^k within the normal range: rounding only",
     set_of({C::kPrecision}),
     set_of({C::kInvalid, C::kOverflow, C::kUnderflow}),
     &geometric_series_healthy, &series_healthy_probe},
    {"series/broken",
     "unbounded growing series: overflow, then inf/inf invalid",
     set_of({C::kPrecision, C::kOverflow, C::kInvalid}),
     mon::ConditionSet{}, &geometric_series_broken, &series_broken_probe},
    {"normalize/healthy",
     "2-vector normalization at ordinary scale",
     set_of({C::kPrecision}), set_of({C::kInvalid, C::kOverflow}),
     &normalize_healthy, &normalize_healthy_probe},
    {"normalize/broken",
     "naive normalization at scale 1e200: the squares overflow although "
     "the answer (0.6, 0.8) is representable",
     set_of({C::kPrecision, C::kOverflow}), set_of({C::kInvalid}),
     &normalize_broken, &normalize_broken_probe},
    {"decay/healthy",
     "exponential decay through the subnormal range: underflow and "
     "denormal traffic is expected and benign here",
     set_of({C::kPrecision, C::kUnderflow}),
     set_of({C::kInvalid, C::kOverflow, C::kDivByZero}), &decay_healthy,
     &decay_healthy_probe},
    {"poly/healthy",
     "well-scaled cubic via Horner's rule on [-1, 1]: rounding only",
     set_of({C::kPrecision}),
     set_of({C::kInvalid, C::kOverflow, C::kDivByZero}), &poly_healthy,
     &poly_healthy_probe},
    {"poly/broken",
     "Horner evaluation with 1e300-scaled coefficients: the leading term "
     "overflows at moderate |x|",
     set_of({C::kPrecision, C::kOverflow}),
     set_of({C::kInvalid, C::kDivByZero}), &poly_broken,
     &poly_broken_probe},
}};

}  // namespace

std::span<const Workload> catalogue() { return kCatalogue; }

mon::ConditionSet observe(const Workload& w) {
  NativeContext ctx;
  return observe(w, ctx);
}

mon::ConditionSet observe(const Workload& w, EvalContext& ctx) {
  mon::ScopedMonitor monitor;
  w.run(ctx);
  return monitor.stop();
}

mon::FlowReport observe_flow(const Workload& w,
                             const mon::FlowOptions& options) {
  FlowContext ctx;
  return observe_flow(w, ctx, options);
}

mon::FlowReport observe_flow(const Workload& w, EvalContext& ctx,
                             const mon::FlowOptions& options) {
  mon::FlowReport report;
  mon::monitor_flow([&] { w.run(ctx); }, report, options);
  return report;
}

bool contract_holds(const Workload& w, const mon::ConditionSet& observed) {
  for (std::size_t i = 0; i < mon::kConditionCount; ++i) {
    const auto c = static_cast<mon::Condition>(i);
    if (w.expected.test(c) && !observed.test(c)) return false;
    if (w.forbidden.test(c) && observed.test(c)) return false;
  }
  return true;
}

}  // namespace fpq::workloads
