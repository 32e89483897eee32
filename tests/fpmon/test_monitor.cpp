// The scoped hardware exception monitor: each IEEE condition raised in
// isolation, nesting, sticky re-merging, softfloat harvesting, and the
// host layer's flag and rounding maps.

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fpmon/hardware.hpp"
#include "fpmon/monitor.hpp"
#include "softfloat/ops.hpp"

namespace mon = fpq::mon;
namespace sf = fpq::softfloat;

namespace {

// The host layer's opaque ops, which really execute on the FPU.
using mon::host::add;
using mon::host::div;
using mon::host::mul;

TEST(Monitor, CleanRegionReportsNothing) {
  const auto seen = mon::monitor_region([] { (void)add(1.0, 2.0); });
  EXPECT_FALSE(seen.any());
  EXPECT_EQ(seen.to_string(), "none");
}

TEST(Monitor, DetectsDivByZero) {
  const auto seen = mon::monitor_region([] { (void)div(1.0, 0.0); });
  EXPECT_TRUE(seen.test(mon::Condition::kDivByZero));
  EXPECT_FALSE(seen.test(mon::Condition::kInvalid));
}

TEST(Monitor, DetectsInvalid) {
  const auto seen = mon::monitor_region([] { (void)div(0.0, 0.0); });
  EXPECT_TRUE(seen.test(mon::Condition::kInvalid));
}

TEST(Monitor, DetectsOverflowAndPrecision) {
  const auto seen = mon::monitor_region([] { (void)mul(1e300, 1e300); });
  EXPECT_TRUE(seen.test(mon::Condition::kOverflow));
  EXPECT_TRUE(seen.test(mon::Condition::kPrecision));
}

TEST(Monitor, DetectsUnderflow) {
  const auto seen = mon::monitor_region([] { (void)mul(1e-300, 1e-300); });
  EXPECT_TRUE(seen.test(mon::Condition::kUnderflow));
}

TEST(Monitor, DetectsPrecisionAlone) {
  const auto seen = mon::monitor_region([] { (void)div(1.0, 3.0); });
  EXPECT_TRUE(seen.test(mon::Condition::kPrecision));
  EXPECT_FALSE(seen.test(mon::Condition::kOverflow));
  EXPECT_FALSE(seen.test(mon::Condition::kInvalid));
}

TEST(Monitor, DetectsDenormalOperandWhenSupported) {
  mon::ScopedMonitor monitor;
  if (!monitor.tracks_denormals()) GTEST_SKIP() << "no MXCSR on this host";
  (void)mul(4.9406564584124654e-324, 2.0);  // subnormal operand
  const auto seen = monitor.stop();
  EXPECT_TRUE(seen.test(mon::Condition::kDenorm));
}

TEST(Monitor, InnerScopeDoesNotHideFromOuter) {
  mon::ScopedMonitor outer;
  {
    mon::ScopedMonitor inner;
    (void)div(1.0, 0.0);
    const auto inner_seen = inner.stop();
    EXPECT_TRUE(inner_seen.test(mon::Condition::kDivByZero));
  }
  const auto outer_seen = outer.stop();
  EXPECT_TRUE(outer_seen.test(mon::Condition::kDivByZero))
      << "sticky semantics must be re-merged on inner exit";
}

TEST(Monitor, InnerScopeStartsClean) {
  mon::ScopedMonitor outer;
  (void)div(1.0, 0.0);
  {
    mon::ScopedMonitor inner;
    const auto inner_seen = inner.stop();
    EXPECT_FALSE(inner_seen.any())
        << "outer exceptions must not leak into the inner scope";
  }
  EXPECT_TRUE(outer.stop().test(mon::Condition::kDivByZero));
}

TEST(Monitor, RestoresPreexistingFlags) {
  std::feclearexcept(FE_ALL_EXCEPT);
  (void)div(1.0, 0.0);  // raise divbyzero before any monitor
  {
    mon::ScopedMonitor monitor;
    (void)monitor.stop();
  }
  EXPECT_TRUE(std::fetestexcept(FE_DIVBYZERO))
      << "the monitor must restore flags that were already pending";
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(Monitor, PeekWithoutStopping) {
  mon::ScopedMonitor monitor;
  (void)div(0.0, 0.0);
  EXPECT_TRUE(monitor.peek().test(mon::Condition::kInvalid));
  (void)div(1.0, 0.0);
  const auto seen = monitor.stop();
  EXPECT_TRUE(seen.test(mon::Condition::kInvalid));
  EXPECT_TRUE(seen.test(mon::Condition::kDivByZero));
}

TEST(Monitor, StopIsIdempotent) {
  mon::ScopedMonitor monitor;
  (void)div(0.0, 0.0);
  const auto first = monitor.stop();
  (void)div(1.0, 0.0);  // after stop: not recorded
  const auto second = monitor.stop();
  EXPECT_EQ(first, second);
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(ConditionSet, MergeAndCount) {
  mon::ConditionSet a, b;
  a.set(mon::Condition::kOverflow);
  b.set(mon::Condition::kInvalid);
  b.set(mon::Condition::kPrecision);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(a.test(mon::Condition::kOverflow));
  EXPECT_TRUE(a.test(mon::Condition::kInvalid));
}

TEST(ConditionSet, FromSoftfloatFlags) {
  sf::Env env;
  sf::div(sf::from_native(1.0), sf::from_native(0.0), env);
  sf::div(sf::from_native(0.0), sf::from_native(0.0), env);
  const auto seen = mon::ConditionSet::from_softfloat_flags(env.flags());
  EXPECT_TRUE(seen.test(mon::Condition::kDivByZero));
  EXPECT_TRUE(seen.test(mon::Condition::kInvalid));
  EXPECT_FALSE(seen.test(mon::Condition::kOverflow));
}

TEST(ConditionSet, ToStringListsConditions) {
  mon::ConditionSet set;
  set.set(mon::Condition::kOverflow);
  set.set(mon::Condition::kInvalid);
  EXPECT_EQ(set.to_string(), "Overflow|Invalid");
}

TEST(Monitor, ThrowInsideNestedMonitorUnwindsSafely) {
  // A throw between construction and stop() must run the inner monitor's
  // destructor harvest: the outer scope still sees the inner conditions
  // (sticky re-merge) and the host flag state is left balanced.
  std::feclearexcept(FE_ALL_EXCEPT);
  mon::ScopedMonitor outer;
  try {
    mon::ScopedMonitor inner;
    (void)div(1.0, 0.0);
    throw std::runtime_error("mid-region failure");
  } catch (const std::runtime_error&) {
  }
  (void)div(1.0, 3.0);  // the outer region keeps monitoring after unwind
  const auto outer_seen = outer.stop();
  EXPECT_TRUE(outer_seen.test(mon::Condition::kDivByZero))
      << "inner conditions must survive exceptional unwind";
  EXPECT_TRUE(outer_seen.test(mon::Condition::kPrecision));
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(Monitor, MonitorRegionCaptureOverloadSurvivesThrow) {
  // The capture overload harvests into `out` even when the region body
  // throws — the throwing path of the §V wrapper question.
  mon::ConditionSet seen;
  bool caught = false;
  try {
    mon::monitor_region(
        [] {
          (void)div(0.0, 0.0);
          throw std::runtime_error("simulation blew up");
        },
        seen);
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_TRUE(seen.test(mon::Condition::kInvalid))
      << "conditions raised before the throw must be harvested";
}

TEST(Monitor, MonitorRegionCaptureMatchesReturningOverload) {
  mon::ConditionSet captured;
  mon::monitor_region([] { (void)div(1.0, 0.0); }, captured);
  const auto returned = mon::monitor_region([] { (void)div(1.0, 0.0); });
  EXPECT_EQ(captured, returned);
}

TEST(Monitor, SuspicionQuizShape) {
  // The paper's suspicion-quiz scenario: wrap a "simulation", then ask
  // which of the five conditions occurred one or more times.
  const auto seen = mon::monitor_region([] {
    double acc = 1.0;
    for (int i = 0; i < 400; ++i) acc = mul(acc, 10.0);   // -> overflow
    (void)add(acc, -acc);                                  // inf - inf
  });
  EXPECT_TRUE(seen.test(mon::Condition::kOverflow));
  EXPECT_TRUE(seen.test(mon::Condition::kInvalid));
  EXPECT_TRUE(seen.test(mon::Condition::kPrecision));
}

TEST(HostLayer, StickyFlagsMapEveryFenvBit) {
  const std::pair<int, unsigned> kMap[] = {
      {FE_INVALID, sf::kFlagInvalid},     {FE_DIVBYZERO, sf::kFlagDivByZero},
      {FE_OVERFLOW, sf::kFlagOverflow},   {FE_UNDERFLOW, sf::kFlagUnderflow},
      {FE_INEXACT, sf::kFlagInexact}};
  for (const auto& [fe, flag] : kMap) {
    mon::ScopedMonitor monitor;
    std::feraiseexcept(fe);
    EXPECT_EQ(mon::sticky_flags(), flag) << "fenv bit " << fe;
    EXPECT_EQ(monitor.peek(), mon::ConditionSet::from_softfloat_flags(flag));
  }
  if (mon::mxcsr_supported()) {
    mon::ScopedMonitor monitor;
    (void)add(std::numeric_limits<double>::denorm_min(), 0.0);
    EXPECT_EQ(mon::sticky_flags(), sf::kFlagDenormalInput);
  }
}

TEST(HostLayer, OpaqueOpsRoundInTheGuardedDirection) {
  // 1 + 2^-60 is inexact in binary64: up rounds to 1 + 2^-52, the other
  // directed modes and nearest keep 1. Ties-away has no fenv direction
  // and maps to nearest.
  const double tiny = std::ldexp(1.0, -60);
  const double up = std::nextafter(1.0, 2.0);
  const std::pair<sf::Rounding, double> kCases[] = {
      {sf::Rounding::kNearestEven, 1.0}, {sf::Rounding::kTowardZero, 1.0},
      {sf::Rounding::kDown, 1.0},        {sf::Rounding::kUp, up},
      {sf::Rounding::kNearestAway, 1.0}};
  const int entry = std::fegetround();
  for (const auto& [mode, want] : kCases) {
    const mon::ScopedFenvRounding guard(mon::fenv_rounding(mode));
    EXPECT_EQ(add(1.0, tiny), want) << sf::rounding_to_string(mode);
  }
  EXPECT_EQ(std::fegetround(), entry);
  EXPECT_EQ(mon::fenv_rounding(sf::Rounding::kNearestAway), FE_TONEAREST);
}

}  // namespace
