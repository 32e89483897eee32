// The shadow-execution analyzer: it must flag the classic pathologies and
// stay quiet on healthy code.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "analyze/shadow.hpp"
#include "inject/context.hpp"
#include "ir/expr.hpp"
#include "workloads/workloads.hpp"

namespace sh = fpq::shadow;
using E = fpq::ir::Expr;

namespace {

TEST(Shadow, CleanExpressionIsClean) {
  const auto e = E::add(E::mul(E::constant(3.0), E::constant(4.0)),
                        E::constant(5.0));
  const auto report = sh::analyze(e);
  EXPECT_FALSE(report.suspicious());
  EXPECT_EQ(report.double_result, 17.0);
  EXPECT_EQ(report.shadow_result, 17.0);
  EXPECT_EQ(report.relative_error, 0.0);
}

TEST(Shadow, DetectsCatastrophicCancellation) {
  // (1 + 2^-40) - 1: 40 leading bits cancel. The double result is still
  // exact here, but the cancellation itself is the suspicious pattern.
  const auto e = E::sub(E::add(E::constant(1.0), E::constant(0x1.0p-40)),
                        E::constant(1.0));
  sh::Config config;
  config.cancellation_bits_threshold = 30;
  const auto report = sh::analyze(e, config);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_NE(report.findings[0].reason.find("cancellation"),
            std::string::npos);
  EXPECT_GE(report.findings[0].cancelled_bits, 39);
}

TEST(Shadow, DetectsRealAccuracyLoss) {
  // The classic: (a + b) - a with b far below a's precision. binary64
  // returns 0; the true value is b. Relative error is 1.
  const auto a = E::constant(1e16);
  const auto e = E::sub(E::add(a, E::constant(1.0)), a);
  const auto report = sh::analyze(e);
  EXPECT_TRUE(report.suspicious());
  EXPECT_EQ(report.double_result, 0.0);
  EXPECT_EQ(report.shadow_result, 1.0);
}

TEST(Shadow, DetectsFormatInducedOverflow) {
  // 1e300 * 1e300 / 1e300: binary64 hits inf mid-expression; the true
  // value is exactly 1e300.
  const auto e = E::div(E::mul(E::constant(1e300), E::constant(1e300)),
                        E::constant(1e300));
  const auto report = sh::analyze(e);
  EXPECT_TRUE(report.suspicious());
  EXPECT_TRUE(report.double_is_exceptional);
  EXPECT_FALSE(report.shadow_is_exceptional);
  EXPECT_TRUE(report.format_induced_exception);
  EXPECT_EQ(report.shadow_result, 1e300);
}

TEST(Shadow, DetectsFormatInducedNaN) {
  // (1e300*1e300) - (1e300*1e300): inf - inf = NaN in binary64; the true
  // value is 0.
  const auto big = E::mul(E::constant(1e300), E::constant(1e300));
  const auto e = E::sub(big, big);
  const auto report = sh::analyze(e);
  EXPECT_TRUE(std::isnan(report.double_result));
  EXPECT_TRUE(report.format_induced_exception);
  EXPECT_EQ(report.shadow_result, 0.0);
}

TEST(Shadow, HonestWhenMathematicsItselfIsExceptional) {
  // 1/0 is an infinity in ANY precision: not format-induced.
  const auto e = E::div(E::constant(1.0), E::constant(0.0));
  const auto report = sh::analyze(e);
  EXPECT_TRUE(report.double_is_exceptional);
  EXPECT_TRUE(report.shadow_is_exceptional);
  EXPECT_FALSE(report.format_induced_exception);
}

TEST(Shadow, QuietOnBenignRounding) {
  // 1/3 rounds, but the relative error (~1e-17) is far below any sane
  // threshold: no findings.
  const auto e = E::div(E::constant(1.0), E::constant(3.0));
  const auto report = sh::analyze(e);
  EXPECT_FALSE(report.suspicious());
  EXPECT_LT(report.relative_error, 1e-15);
}

TEST(Shadow, ThresholdsAreConfigurable) {
  const auto e = E::div(E::constant(1.0), E::constant(3.0));
  sh::Config strict;
  strict.relative_error_threshold = 1e-20;  // flag even correct rounding
  const auto report = sh::analyze(e, strict);
  EXPECT_TRUE(report.suspicious());
}

TEST(Shadow, SqrtAndFmaShadowed) {
  const auto e = E::fma(E::constant(2.0), E::constant(3.0),
                        E::sqrt(E::constant(16.0)));
  const auto report = sh::analyze(e);
  EXPECT_EQ(report.double_result, 10.0);
  EXPECT_EQ(report.shadow_result, 10.0);
  EXPECT_FALSE(report.suspicious());
}

TEST(Shadow, FindingsSortedWorstFirst) {
  // Two suspicious spots with different severity.
  const auto a = E::constant(1e16);
  const auto cancel = E::sub(E::add(a, E::constant(1.0)), a);  // rel err 1
  const auto mild =
      E::sub(E::add(E::constant(1.0), E::constant(0x1.0p-30)),
             E::constant(1.0));  // exact but cancels
  const auto e = E::mul(cancel, mild);
  sh::Config config;
  config.cancellation_bits_threshold = 25;
  const auto report = sh::analyze(e, config);
  ASSERT_GE(report.findings.size(), 2u);
  EXPECT_GE(report.findings[0].relative_error,
            report.findings[1].relative_error);
}

TEST(Shadow, NaNErrorRanksWorstAndTiesKeepDiscoveryOrder) {
  // (1e300*1e300) - (1e300*1e300*(1-2^-100)): binary64 rounds 1-2^-100 to
  // 1, overflows both products and computes inf - inf = NaN, while the
  // exact difference is 2^-100 * 1e600. The cancellation finding at the
  // subtraction carries a NaN relative error; every other finding is a
  // format-induced overflow or NaN at error +inf.
  const auto big = [] {
    return E::mul(E::constant(1e300), E::constant(1e300));
  };
  const auto scaled =
      E::mul(big(), E::sub(E::constant(1.0), E::constant(0x1.0p-100)));
  const auto e = E::sub(big(), scaled);
  const auto report = sh::analyze(e);
  ASSERT_EQ(report.findings.size(), 5u);
  EXPECT_TRUE(std::isnan(report.findings[0].relative_error));
  EXPECT_GE(report.findings[0].cancelled_bits, 99);
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_TRUE(std::isinf(report.findings[i].relative_error)) << i;
  }
  // Equal errors stay in post-order discovery order.
  EXPECT_EQ(report.findings[1].expression, big().to_string());
  EXPECT_EQ(report.findings[2].expression, big().to_string());
  EXPECT_EQ(report.findings[3].expression, scaled.to_string());
  EXPECT_EQ(report.findings[4].expression, e.to_string());
}

TEST(Shadow, ValueMatchesAnalyzeOnEveryCatalogueCall) {
  // The gauntlet's shadow detector reads value(); fpcheck and the tests
  // read analyze(). Over every call the catalogue probes make on the
  // softfloat substrate, both must report the same trusted result.
  sh::Config config;
  config.precision = 192;
  std::size_t calls = 0;
  for (const fpq::workloads::Workload& w : fpq::workloads::catalogue()) {
    fpq::inject::SoftContext soft;
    fpq::inject::RecordingContext rec(soft);
    w.probe(rec);
    for (const fpq::inject::CallRecord& c : rec.records()) {
      const sh::Report report = sh::analyze(c.expr, config, c.bindings);
      const auto exact = sh::value(c.expr, config.precision, c.bindings);
      const double v = exact.to_double();
      if (std::isnan(report.shadow_result)) {
        EXPECT_TRUE(std::isnan(v)) << c.expr.to_string();
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                  std::bit_cast<std::uint64_t>(report.shadow_result))
            << c.expr.to_string();
      }
      EXPECT_EQ(exact.is_nan() || exact.is_infinity(),
                report.shadow_is_exceptional)
          << c.expr.to_string();
      ++calls;
    }
  }
  EXPECT_GT(calls, 1000u);
}

TEST(Shadow, RenderMentionsVerdictAndNodes) {
  const auto a = E::constant(1e16);
  const auto e = E::sub(E::add(a, E::constant(1.0)), a);
  const auto out = sh::render(sh::analyze(e));
  EXPECT_NE(out.find("VERDICT"), std::string::npos);
  EXPECT_NE(out.find("1e+16"), std::string::npos);
}

TEST(Shadow, LorenzStyleStepMatchesAtHighPrecision) {
  // One Lorenz dy step: shadow and double agree to ~1e-16 — rounding only.
  const auto e = E::add(
      E::constant(1.0),
      E::mul(E::constant(0.01),
             E::sub(E::mul(E::constant(1.0),
                           E::sub(E::constant(28.0), E::constant(1.0))),
                    E::constant(1.0))));
  const auto report = sh::analyze(e);
  EXPECT_FALSE(report.suspicious());
  EXPECT_NEAR(report.double_result, 1.26, 1e-12);
}

}  // namespace
