// fpq::ir expression trees: hash consing (structural equality IS pointer
// equality), rendering, the builders (sum/dot/horner) and their input
// checks, variable bindings, and operation-level provenance traces.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

#include "ir/ir.hpp"
#include "softfloat/env.hpp"

namespace ir = fpq::ir;
namespace sf = fpq::softfloat;
using E = ir::Expr;

namespace {

TEST(ExprInterning, StructurallyEqualTreesShareOneNode) {
  const auto a = E::add(E::constant(1.0), E::constant(2.0));
  const auto b = E::add(E::constant(1.0), E::constant(2.0));
  EXPECT_TRUE(a == b);
  EXPECT_EQ(&a.node(), &b.node());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ExprInterning, DistinctTreesDiffer) {
  const auto a = E::add(E::constant(1.0), E::constant(2.0));
  const auto b = E::add(E::constant(2.0), E::constant(1.0));  // not commutative
  const auto c = E::sub(E::constant(1.0), E::constant(2.0));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ExprInterning, NegativeZeroConstantIsDistinctFromPositiveZero) {
  // The IR stores constants by bit pattern: +0 and -0 are different
  // programs (the paper's negative-zero question depends on it).
  const auto pos = E::constant(0.0);
  const auto neg = E::constant(-0.0);
  EXPECT_FALSE(pos == neg);
}

TEST(ExprInterning, SharedSubtreesReuseInternedNodes) {
  const std::size_t before = E::intern_pool_size();
  const auto x = E::mul(E::constant(41.5), E::constant(2.0));
  const auto twice = E::add(x, x);
  const std::size_t after = E::intern_pool_size();
  // mul + two consts + add: at most 4 fresh nodes even though the mul
  // appears twice in the sum.
  EXPECT_LE(after - before, 4u);
  EXPECT_TRUE(twice.node().children[0] == twice.node().children[1]);
}

TEST(ExprRender, AllNodeKindsRender) {
  EXPECT_EQ(E::constant(1.5).to_string(), "1.5");
  EXPECT_EQ(E::variable("x", 0).to_string(), "x");
  const auto x = E::variable("x", 0);
  const auto y = E::variable("y", 1);
  EXPECT_EQ(E::add(x, y).to_string(), "(x + y)");
  EXPECT_EQ(E::sub(x, y).to_string(), "(x - y)");
  EXPECT_EQ(E::mul(x, y).to_string(), "(x * y)");
  EXPECT_EQ(E::div(x, y).to_string(), "(x / y)");
  EXPECT_EQ(E::sqrt(x).to_string(), "sqrt(x)");
  EXPECT_EQ(E::fma(x, y, E::constant(1.0)).to_string(), "fma(x, y, 1)");
  EXPECT_NE(E::neg(x).to_string().find("x"), std::string::npos);
  EXPECT_NE(E::cmp_eq(x, y).to_string().find("=="), std::string::npos);
  EXPECT_NE(E::cmp_lt(x, y).to_string().find("<"), std::string::npos);
}

TEST(ExprBuilders, SumIsLeftToRightChain) {
  const auto s = E::sum({1.0, 2.0, 3.0});
  // ((1 + 2) + 3): the order C source implies.
  EXPECT_EQ(s.to_string(), "((1 + 2) + 3)");
  EXPECT_EQ(E::sum({7.0}).to_string(), "7");
}

TEST(ExprBuilders, SumOverExprSpan) {
  const std::array<E, 3> xs{E::variable("a", 0), E::variable("b", 1),
                            E::variable("c", 2)};
  const auto s = E::sum(std::span<const E>(xs));
  EXPECT_EQ(s.to_string(), "((a + b) + c)");
}

TEST(ExprBuilders, DotIsNaiveAccumulation) {
  // Data enters as bindings: the tree is the same program for any data.
  const std::array<E, 3> xs{E::variable("a", 0), E::variable("b", 1),
                            E::variable("c", 2)};
  const std::array<E, 3> ys{E::variable("d", 3), E::variable("e", 4),
                            E::variable("f", 5)};
  const auto d = E::dot(xs, ys);
  EXPECT_EQ(d.to_string(), "(((a * d) + (b * e)) + (c * f))");
  const std::array<double, 6> binding{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const auto r = ir::evaluate(d, ir::EvalConfig::ieee_strict(),
                              std::span<const double>(binding));
  EXPECT_EQ(sf::to_native(r.value), 32.0);
}

TEST(ExprBuilders, RejectEmptyAndMismatchedInputs) {
  // Checked in every build type: an assert would vanish under NDEBUG and
  // leave the builders reading past the end of their input.
  const std::array<E, 2> two{E::variable("a", 0), E::variable("b", 1)};
  const std::span<const E> none;
  EXPECT_THROW((void)E::sum(none), std::invalid_argument);
  EXPECT_THROW((void)E::sum(std::initializer_list<double>{}),
               std::invalid_argument);
  EXPECT_THROW((void)E::dot(none, none), std::invalid_argument);
  EXPECT_THROW((void)E::dot(two, std::span<const E>(two).first(1)),
               std::invalid_argument);
  EXPECT_THROW((void)E::dot(std::span<const E>(two).first(1), two),
               std::invalid_argument);
  EXPECT_THROW((void)E::horner(std::span<const double>{}, two[0]),
               std::invalid_argument);
}

TEST(ExprBuilders, HornerNestsHighestDegreeFirst) {
  const std::array<double, 3> c{2.0, -3.0, 1.0};  // 2x^2 - 3x + 1
  const auto p = E::horner(std::span<const double>(c), E::variable("x", 0));
  EXPECT_EQ(p.to_string(), "((((2 * x) + -3) * x) + 1)");
  // The value at x=3 is 2*9 - 3*3 + 1 = 10, exactly.
  const std::array<double, 1> binding{3.0};
  const auto r = ir::evaluate(p, ir::EvalConfig::ieee_strict(),
                              std::span<const double>(binding));
  EXPECT_EQ(sf::to_native(r.value), 10.0);
  // Single coefficient: the constant polynomial.
  const std::array<double, 1> k{5.0};
  EXPECT_EQ(E::horner(std::span<const double>(k), E::variable("x", 0))
                .to_string(),
            "5");
}

TEST(ExprEval, VariablesReadTheirBindingSlot) {
  const auto e = E::sub(E::variable("a", 0), E::variable("b", 1));
  const std::array<double, 2> binding{10.0, 4.0};
  const auto r = ir::evaluate(e, ir::EvalConfig::ieee_strict(),
                              std::span<const double>(binding));
  EXPECT_EQ(sf::to_native(r.value), 6.0);
}

TEST(ExprEval, MissingBindingIsQuietNaN) {
  const auto e = E::variable("ghost", 7);
  const auto r = ir::evaluate(e, ir::EvalConfig::ieee_strict());
  EXPECT_TRUE(std::isnan(sf::to_native(r.value)));
  EXPECT_EQ(r.flags, 0u) << "binding a NaN is quiet";
}

TEST(ExprEval, NegIsSignBitFlipNotSubtraction) {
  // neg(+0) = -0 with no flags; sub(0, +0) = +0 under round-to-nearest.
  const auto r = ir::evaluate(E::neg(E::constant(0.0)),
                              ir::EvalConfig::ieee_strict());
  EXPECT_TRUE(std::signbit(sf::to_native(r.value)));
  EXPECT_EQ(r.flags, 0u);
}

TEST(ExprEval, ComparisonsEvaluateToZeroOrOne) {
  const auto cfg = ir::EvalConfig::ieee_strict();
  const auto nan = E::div(E::constant(0.0), E::constant(0.0));
  // NaN == NaN is false (quiet); NaN < 1 is false and signals invalid.
  EXPECT_EQ(sf::to_native(ir::evaluate(E::cmp_eq(nan, nan), cfg).value), 0.0);
  const auto lt = ir::evaluate(E::cmp_lt(nan, E::constant(1.0)), cfg);
  EXPECT_EQ(sf::to_native(lt.value), 0.0);
  EXPECT_NE(lt.flags & sf::kFlagInvalid, 0u) << "less is the signaling <";
  EXPECT_EQ(sf::to_native(ir::evaluate(
                              E::cmp_eq(E::constant(0.0), E::constant(-0.0)),
                              cfg)
                              .value),
            1.0)
      << "+0 == -0";
}

TEST(ProvenanceTrace, RecordsPerOperationFlags) {
  // (1e300 * 1e300) / 1e300: the multiply overflows, the divide then only
  // rounds — the trace must attribute the overflow to the multiply.
  const auto e = E::div(E::mul(E::constant(1e300), E::constant(1e300)),
                        E::constant(1e300));
  ir::ProvenanceTrace trace;
  const auto r =
      ir::evaluate(e, ir::EvalConfig::ieee_strict(), {}, &trace);
  ASSERT_EQ(trace.events().size(), 2u) << "one event per operation";
  EXPECT_EQ(trace.events()[0].kind, ir::ExprKind::kMul);
  EXPECT_NE(trace.events()[0].flags & sf::kFlagOverflow, 0u);
  EXPECT_EQ(trace.events()[1].kind, ir::ExprKind::kDiv);
  EXPECT_EQ(trace.events()[1].flags & sf::kFlagOverflow, 0u);
  const auto* first = trace.first_raiser(sf::kFlagOverflow);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind, ir::ExprKind::kMul);
  EXPECT_EQ(trace.cumulative_flags(), r.flags)
      << "per-op flags union to the sticky set";
}

TEST(ProvenanceTrace, StickyUnionUnchangedByInstrumentation) {
  const auto e = E::add(E::div(E::constant(1.0), E::constant(0.0)),
                        E::div(E::constant(1.0), E::constant(3.0)));
  const auto plain = ir::evaluate(e, ir::EvalConfig::ieee_strict());
  ir::ProvenanceTrace trace;
  const auto traced =
      ir::evaluate(e, ir::EvalConfig::ieee_strict(), {}, &trace);
  EXPECT_EQ(plain.value.bits, traced.value.bits);
  EXPECT_EQ(plain.flags, traced.flags);
  EXPECT_EQ(trace.cumulative_flags(), plain.flags);
}

TEST(ProvenanceTrace, RenderNamesFlagsAndFirstRaiser) {
  const auto e = E::div(E::constant(1.0), E::constant(0.0));
  ir::ProvenanceTrace trace;
  ir::evaluate(e, ir::EvalConfig::ieee_strict(), {}, &trace);
  const auto out = trace.render();
  EXPECT_NE(out.find("(1 / 0)"), std::string::npos);
  EXPECT_NE(out.find("divbyzero"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
