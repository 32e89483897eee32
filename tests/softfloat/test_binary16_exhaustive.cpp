// Exhaustive unary sweeps over ALL 65536 binary16 encodings: total
// coverage of sqrt, roundToIntegralExact, and the encoding-order
// utilities on a complete format. (Binary ops are also covered by the
// random oracle in test_binary16_oracle.cpp.)
//
// The differential sweeps at the bottom extend the coverage to every
// binary16 op under ALL FIVE rounding modes (including roundTiesToAway,
// which no host FPU expresses), as rows of the sweep32 grid checked
// bitwise against the exact references in parallel/sweep32_ref: sqrt16
// exhausts the encoding space per mode, and the pair rows run a prefix
// of their 2^32 (a, b) space that pairs every first operand with
// distinct partners.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "ir/ir.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/fast.hpp"
#include "softfloat/ops.hpp"
#include "softfloat/util.hpp"

namespace sf = fpq::softfloat;
namespace sw = fpq::parallel::sweep32;

namespace {

using F16 = sf::Float16;

/// Runs `op`'s sweep32 row over the pattern prefix [0, end) (0 = its
/// whole space) in all five modes.
sw::Sweep32Report sweep_row(sw::SweepOp op, std::uint64_t end) {
  sw::Sweep32Config config;
  config.op = op;
  config.end = end;
  config.chunk_bits = 12;
  return sw::run_sweep32(config);
}

std::string first_mismatch(const sw::Sweep32Report& report) {
  return report.mismatch_samples.empty() ? "" : report.mismatch_samples[0];
}

double widen(F16 x) {
  sf::Env env;
  return sf::to_native(sf::convert<64>(x, env));
}

TEST(Binary16Exhaustive, SqrtWithinOneUlpOfWideSqrtAndExactWhenSquare) {
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    const F16 x{static_cast<std::uint16_t>(raw)};
    sf::Env env;
    const F16 r = sf::sqrt(x, env);
    if (x.is_nan() || (x.sign() && !x.is_zero())) {
      ASSERT_TRUE(r.is_nan()) << sf::describe(x);
      continue;
    }
    if (x.is_zero() || x.is_infinity()) {
      ASSERT_EQ(r.bits, x.bits) << sf::describe(x);
      continue;
    }
    // Reference: binary64 sqrt of the widened value, narrowed. Double
    // rounding can differ from the directly rounded result by at most one
    // ulp; and when the input is an exact square the result is exact.
    const double wide = std::sqrt(widen(x));
    sf::Env narrow;
    const F16 via = sf::convert<16>(sf::from_native(wide), narrow);
    const bool close = r.bits == via.bits || r.bits + 1 == via.bits ||
                       via.bits + 1 == r.bits;
    ASSERT_TRUE(close) << sf::describe(x) << " -> " << sf::describe(r)
                       << " vs " << sf::describe(via);
    // Exactness invariant: sqrt(r)^2 == x implies no inexact flag.
    const double back = widen(r) * widen(r);
    if (back == widen(x)) {
      ASSERT_FALSE(env.test(sf::kFlagInexact)) << sf::describe(x);
    }
  }
}

TEST(Binary16Exhaustive, RoundToIntegralContract) {
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    const F16 x{static_cast<std::uint16_t>(raw)};
    sf::Env env;
    const F16 r = sf::round_to_integral(x, env);
    if (x.is_nan()) {
      ASSERT_TRUE(r.is_nan());
      continue;
    }
    if (x.is_infinity()) {
      ASSERT_EQ(r.bits, x.bits);
      continue;
    }
    const double xv = widen(x);
    const double rv = widen(r);
    // Result is integral...
    ASSERT_EQ(rv, std::nearbyint(rv)) << sf::describe(x);
    // ... within 0.5 of the input (nearest-even mode) ...
    ASSERT_LE(std::fabs(rv - xv), 0.5) << sf::describe(x);
    // ... matches the host's nearbyint ...
    ASSERT_EQ(rv, std::nearbyint(xv)) << sf::describe(x);
    // ... preserves sign of zero results ...
    if (rv == 0.0) {
      ASSERT_EQ(std::signbit(rv), x.sign()) << sf::describe(x);
    }
    // ... and raises inexact exactly when the value changed.
    ASSERT_EQ(env.test(sf::kFlagInexact), rv != xv) << sf::describe(x);
  }
}

TEST(Binary16Exhaustive, NextUpIsTheSuccessorInValueOrder) {
  // For every finite x (except the largest), next_up(x) is strictly
  // greater and nothing fits strictly between (checked through the exact
  // binary64 widening).
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    const F16 x{static_cast<std::uint16_t>(raw)};
    if (x.is_nan() || x.is_infinity()) continue;
    const F16 up = sf::next_up(x);
    if (up.is_infinity()) {
      ASSERT_EQ(x.bits, F16::max_finite().bits);
      continue;
    }
    ASSERT_GT(widen(up), widen(x)) << sf::describe(x);
    // Successor property: the midpoint narrows to one of the two.
    sf::Env env;
    const double mid = (widen(x) + widen(up)) / 2.0;
    const F16 narrowed = sf::convert<16>(sf::from_native(mid), env);
    ASSERT_TRUE(narrowed.bits == x.bits || narrowed.bits == up.bits ||
                (narrowed.is_zero() && x.is_zero()))
        << sf::describe(x);
  }
}

TEST(Binary16Exhaustive, UlpMatchesNeighbourGap) {
  for (std::uint32_t raw = 0; raw <= 0x7BFE; ++raw) {  // positive finite
    const F16 x{static_cast<std::uint16_t>(raw)};
    const F16 up = sf::next_up(x);
    const double gap = widen(up) - widen(x);
    const double u = widen(sf::ulp(x));
    // ulp(x) equals the gap to the next value away from zero; at binade
    // boundaries next_up crosses into the wider gap, so allow gap or
    // half-gap... for positive x going up IS away from zero: exact match
    // except where x is a power of two (the gap above is the larger one).
    ASSERT_TRUE(u == gap || 2.0 * u == gap) << sf::describe(x);
  }
}

TEST(Binary16Exhaustive, NegationRoundTripsAndAbsClearsSign) {
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    const F16 x{static_cast<std::uint16_t>(raw)};
    ASSERT_EQ(x.negated().negated().bits, x.bits);
    ASSERT_FALSE(x.abs().sign());
    ASSERT_EQ(x.abs().abs().bits, x.abs().bits);
  }
}

TEST(Binary16Exhaustive, SqrtExhaustiveUnderAllFiveRoundingModes) {
  // All 2^16 encodings, all five modes, against the double-rounding-safe
  // hardware reference (shards aggregate failures; the assert runs here
  // on the main thread only).
  const auto report = sweep_row(sw::SweepOp::kSqrt16, 0);
  EXPECT_EQ(report.mismatches, 0u) << first_mismatch(report);
  EXPECT_EQ(report.checked, 5ull * 0x10000ull);
}

TEST(Binary16Exhaustive, FmaAllFirstOperandsUnderAllFiveRoundingModes) {
  // Every first-operand encoding x 4 partners x five modes, each with a
  // pattern-derived addend, against the exact product + TwoSum +
  // round-to-odd reference.
  const auto report = sweep_row(sw::SweepOp::kFma16, 4 * 0x10000ull);
  EXPECT_EQ(report.mismatches, 0u) << first_mismatch(report);
  EXPECT_EQ(report.checked, 5ull * 0x10000ull * 4ull);
}

TEST(Binary16Exhaustive, BatchedTapeMatchesDirectSoftfloatExhaustively) {
  // The batched SoA tape executor against DIRECT softfloat calls (no IR
  // reference in the loop at all): op(x, partner) for every one of the
  // 2^16 first-operand encodings, bit-identical values AND per-row flag
  // unions. This is the perf-path's ground-truth anchor: the engine the
  // benches race is pinned to the scalar ops it claims to batch.
  namespace ir = fpq::ir;
  fpq::parallel::ThreadPool pool;
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  const double partner = 1.0 / 3;  // inexact in binary16, finite, normal
  sf::Env quiet;
  const F16 partner16 = sf::convert<16>(sf::from_native(partner), quiet);

  struct Case {
    ir::Expr tree;
    F16 (*direct)(F16, F16, sf::Env&);
  };
  const Case cases[] = {
      {ir::Expr::add(x, y),
       +[](F16 a, F16 b, sf::Env& e) { return sf::add(a, b, e); }},
      {ir::Expr::mul(x, y),
       +[](F16 a, F16 b, sf::Env& e) { return sf::mul(a, b, e); }},
      {ir::Expr::div(x, y),
       +[](F16 a, F16 b, sf::Env& e) { return sf::div(a, b, e); }},
  };

  ir::BindingTable table;
  table.width = 2;
  table.values.reserve(2 * 0x10000);
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    table.values.push_back(widen(F16{static_cast<std::uint16_t>(raw)}));
    table.values.push_back(partner);
  }

  ir::EvalConfig half;
  half.format_bits = 16;
  for (const Case& c : cases) {
    const ir::Tape tape = ir::Tape::compile(c.tree, half);
    const auto got = ir::execute_batch(pool, tape, table);
    ASSERT_EQ(got.size(), std::size_t{0x10000});
    for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
      // Bindings are doubles, so the engine sees the operand after a
      // widen→narrow round trip — bit-identity for every encoding except
      // sNaN, which quiets on operand entry (the documented semantics of
      // every evaluator's `variable`). Feed the reference the same value.
      const F16 a = sf::convert<16>(
          sf::from_native(widen(F16{static_cast<std::uint16_t>(raw)})),
          quiet);
      sf::Env env;
      const F16 direct = c.direct(a, partner16, env);
      ASSERT_EQ(got[raw].value.bits,
                sf::convert<64>(direct, quiet).bits)
          << sf::describe(a) << " " << c.tree.to_string();
      ASSERT_EQ(got[raw].flags, env.flags())
          << sf::describe(a) << " " << c.tree.to_string();
    }
  }
}

TEST(Binary16Exhaustive, FastNarrowMatchesConvertAtEveryBoundary) {
  // fast::narrow16_value (the batched tape's flag-free operand narrow)
  // against softfloat convert<16>, all five rounding modes, probing every
  // adjacent pair of finite binary16 values at the points where rounding
  // decisions flip: the lower value itself, the exact midpoint, and one
  // binary64 ulp to either side of the midpoint. Also the overflow band
  // above max_finite and the underflow band below the smallest subnormal.
  const sf::Rounding modes[] = {
      sf::Rounding::kNearestEven, sf::Rounding::kTowardZero,
      sf::Rounding::kDown, sf::Rounding::kUp, sf::Rounding::kNearestAway};
  auto check = [&](double x) {
    if (x == 0.0 || !std::isfinite(x)) return;
    const std::uint64_t xb = std::bit_cast<std::uint64_t>(x);
    if (((xb >> 52) & 0x7FF) == 0) return;  // double-subnormal: not ours
    for (sf::Rounding mode : modes) {
      sf::Env env(mode);
      const double want = widen(sf::convert<16>(sf::from_native(x), env));
      const double got = sf::fast::narrow16_value(x, mode);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << x << " mode " << static_cast<int>(mode);
    }
  };
  for (std::uint32_t raw = 0; raw < 0x7C00; ++raw) {  // positive finite
    const F16 lo{static_cast<std::uint16_t>(raw)};
    const F16 hi = sf::next_up(lo);
    const double lov = widen(lo);
    const double hiv = hi.is_infinity() ? 2.0 * widen(F16::max_finite())
                                        : widen(hi);
    const double mid = (lov + hiv) / 2.0;  // exact: adjacent significands
    for (double p : {lov, mid, std::nextafter(mid, lov),
                     std::nextafter(mid, hiv)}) {
      check(p);
      check(-p);
    }
  }
  // Deep underflow, the overflow threshold (max_finite + half an ulp =
  // 65520), and far overflow.
  for (double p : {0x1p-26, 0x1p-100, 0x1.8p-25, 65520.0,
                   std::nextafter(65520.0, 0.0),
                   std::nextafter(65520.0, 1.0e9), 65536.0, 1.0e5,
                   1.0e300}) {
    check(p);
    check(-p);
  }
}

TEST(Binary16Exhaustive, BatchedTapeFlushModesMatchDirectSoftfloat) {
  // The batched executor's FTZ/DAZ and directed-rounding behaviour
  // against direct softfloat calls, swept over every first-operand
  // encoding with a subnormal partner so flush semantics actually fire.
  namespace ir = fpq::ir;
  fpq::parallel::ThreadPool pool;
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  sf::Env quiet;
  const F16 partner16{0x02ABu};  // a subnormal: exercises DE/DAZ paths
  const double partner = widen(partner16);

  struct Config {
    sf::Rounding mode;
    bool ftz;
    bool daz;
  };
  const Config configs[] = {
      {sf::Rounding::kNearestEven, true, true},
      {sf::Rounding::kDown, true, false},
      {sf::Rounding::kUp, false, true},
  };

  ir::BindingTable table;
  table.width = 2;
  table.values.reserve(2 * 0x10000);
  for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
    table.values.push_back(widen(F16{static_cast<std::uint16_t>(raw)}));
    table.values.push_back(partner);
  }

  for (const Config& fc : configs) {
    ir::EvalConfig half;
    half.format_bits = 16;
    half.rounding = fc.mode;
    half.flush_to_zero = fc.ftz;
    half.denormals_are_zero = fc.daz;
    for (int op = 0; op < 3; ++op) {
      const ir::Expr tree = op == 0   ? ir::Expr::add(x, y)
                            : op == 1 ? ir::Expr::mul(x, y)
                                      : ir::Expr::div(x, y);
      const ir::Tape tape = ir::Tape::compile(tree, half);
      const auto got = ir::execute_batch(pool, tape, table);
      ASSERT_EQ(got.size(), std::size_t{0x10000});
      for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
        const F16 a = sf::convert<16>(
            sf::from_native(widen(F16{static_cast<std::uint16_t>(raw)})),
            quiet);
        sf::Env env(fc.mode);
        env.set_flush_to_zero(fc.ftz);
        env.set_denormals_are_zero(fc.daz);
        const F16 direct = op == 0   ? sf::add(a, partner16, env)
                           : op == 1 ? sf::mul(a, partner16, env)
                                     : sf::div(a, partner16, env);
        ASSERT_EQ(got[raw].value.bits, sf::convert<64>(direct, quiet).bits)
            << sf::describe(a) << " op " << op << " mode "
            << static_cast<int>(fc.mode) << " ftz " << fc.ftz << " daz "
            << fc.daz;
        ASSERT_EQ(got[raw].flags, env.flags())
            << sf::describe(a) << " op " << op << " mode "
            << static_cast<int>(fc.mode) << " ftz " << fc.ftz << " daz "
            << fc.daz;
      }
    }
  }
}

TEST(Binary16Exhaustive, AddMulDivExhaustiveFirstOperandSweep) {
  // The remaining binary ops through the same grid: every first operand,
  // 2 partners each, all five modes.
  for (const sw::SweepOp op : {sw::SweepOp::kAdd16, sw::SweepOp::kSub16,
                               sw::SweepOp::kMul16, sw::SweepOp::kDiv16}) {
    const auto report = sweep_row(op, 2 * 0x10000ull);
    EXPECT_EQ(report.mismatches, 0u)
        << sw::sweep_op_name(op) << ": " << first_mismatch(report);
    EXPECT_EQ(report.checked, 5ull * 0x10000ull * 2ull);
  }
}

}  // namespace
