// The tape differential-parity suite: compiling an Expr to bytecode and
// executing one row on the interpreter must be BIT-identical (values) and
// sticky-flag-identical to the reference tree walk across every format,
// every rounding mode, FTZ/DAZ and the rewrite passes — CSE and folding
// change neither values nor flag unions, only how many operations run.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "ir/ir.hpp"
#include "softfloat/env.hpp"
#include "stats/prng.hpp"

namespace ir = fpq::ir;
namespace sf = fpq::softfloat;
namespace st = fpq::stats;
using E = ir::Expr;

namespace {

// Random trees over constants AND variables, seeded with the values that
// exercise every flag class (zeros, subnormals, huge, inexact fractions).
const double kPool[] = {
    0.0,     -0.0,    1.0,    -1.0,   0.5,     3.0,
    0.1,     1.0 / 3, -2.5,   7.25,   1e16,    -1e16,
    1e300,   -1e300,  1e-300, 5e-324, 2.2250738585072014e-308,
    1.0 + 0x1.0p-30, 1.7976931348623157e308};

constexpr std::size_t kVars = 3;

E random_tree(st::Xoshiro256pp& g, int depth) {
  if (depth <= 0 || st::uniform_below(g, 5) == 0) {
    if (st::uniform_below(g, 2) == 0) {
      const auto i = st::uniform_below(g, kVars);
      return E::variable("v", static_cast<std::size_t>(i));
    }
    return E::constant(kPool[st::uniform_below(g, std::size(kPool))]);
  }
  switch (st::uniform_below(g, 8)) {
    case 0:
      return E::add(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 1:
      return E::sub(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 2:
      return E::mul(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 3:
      return E::div(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 4:
      return E::sqrt(random_tree(g, depth - 1));
    case 5:
      return E::neg(random_tree(g, depth - 1));
    case 6:
      return E::cmp_lt(random_tree(g, depth - 1), random_tree(g, depth - 1));
    default:
      return E::fma(random_tree(g, depth - 1), random_tree(g, depth - 1),
                    random_tree(g, depth - 1));
  }
}

std::vector<double> random_bindings(st::Xoshiro256pp& g) {
  std::vector<double> out(kVars);
  for (double& x : out) x = kPool[st::uniform_below(g, std::size(kPool))];
  return out;
}

std::vector<ir::EvalConfig> all_configs() {
  std::vector<ir::EvalConfig> out;
  const int formats[] = {16, 32, 64, sf::kBFloat16};
  const sf::Rounding modes[] = {
      sf::Rounding::kNearestEven, sf::Rounding::kTowardZero,
      sf::Rounding::kDown, sf::Rounding::kUp, sf::Rounding::kNearestAway};
  for (const int fmt : formats) {
    for (const auto r : modes) {
      ir::EvalConfig cfg;
      cfg.format_bits = fmt;
      cfg.rounding = r;
      out.push_back(cfg);
    }
    // One flush-mode and one rewrite configuration per format keeps the
    // matrix dense without exploding the runtime.
    ir::EvalConfig flush;
    flush.format_bits = fmt;
    flush.flush_to_zero = true;
    flush.denormals_are_zero = true;
    out.push_back(flush);
    ir::EvalConfig fast;
    fast.format_bits = fmt;
    fast.contract_mul_add = true;
    fast.reassociate = true;
    out.push_back(fast);
  }
  return out;
}

// ---------------------------------------------------------------------
// Compile shape: what CSE and folding are allowed (and not allowed) to do.
// ---------------------------------------------------------------------

TEST(TapeCompile, SharedSubtreeEmittedOnceUnderCse) {
  const E x = E::variable("x", 0);
  const E y = E::variable("y", 1);
  const E m = E::mul(x, y);
  const E t = E::add(m, m);  // hash consing makes both children one node
  const ir::Tape cse = ir::Tape::compile(t);
  EXPECT_EQ(cse.cse_reuses(), 1u);
  EXPECT_EQ(cse.code().size(), 4u);  // x, y, mul, add
}

TEST(TapeCompile, FlagCleanConstantTreeFoldsToOneLoad) {
  const E t = E::add(E::mul(E::constant(2.0), E::constant(4.0)),
                     E::constant(1.0));
  const ir::Tape tape = ir::Tape::compile(t);
  ASSERT_EQ(tape.code().size(), 1u);
  EXPECT_EQ(tape.code()[0].op, ir::TapeOp::kConst);
  EXPECT_EQ(tape.folded_ops(), 2u);
  EXPECT_EQ(tape.constant_bits()[tape.code()[0].a],
            std::bit_cast<std::uint64_t>(9.0));
}

TEST(TapeCompile, InexactConstantOperationDoesNotFold) {
  // 1/3 raises inexact: folding it would silently discard the flag the
  // program is entitled to observe, so the division must stay on tape.
  const E t = E::div(E::constant(1.0), E::constant(3.0));
  const ir::Tape tape = ir::Tape::compile(t);
  EXPECT_EQ(tape.folded_ops(), 0u);
  ASSERT_EQ(tape.code().size(), 3u);
  EXPECT_EQ(tape.code()[2].op, ir::TapeOp::kDiv);
}

TEST(TapeCompile, FoldingLegalityDependsOnTheFormat) {
  // 1024 + 1 is exact in binary64/32 but rounds (inexact) in binary16's
  // 11-bit significand at that magnitude? No: 1025 needs 11 bits — still
  // exact. Use 2048 + 1 = 2049, which needs 12 bits: exact in 32/64,
  // inexact in binary16, so it folds there and only there.
  const E t = E::add(E::constant(2048.0), E::constant(1.0));
  ir::EvalConfig wide;
  wide.format_bits = 64;
  EXPECT_EQ(ir::Tape::compile(t, wide).folded_ops(), 1u);
  ir::EvalConfig half;
  half.format_bits = 16;
  EXPECT_EQ(ir::Tape::compile(t, half).folded_ops(), 0u);
}

TEST(TapeCompile, RegistersAreReusedAcrossAChain) {
  E chain = E::variable("x", 0);
  for (int i = 1; i <= 10; ++i) {
    chain = E::add(chain, E::constant(static_cast<double>(i)));
  }
  const ir::Tape tape = ir::Tape::compile(chain);
  EXPECT_EQ(tape.code().size(), 21u);
  // A left-leaning chain needs only the accumulator and one operand slot.
  EXPECT_LE(tape.register_count(), 3u);
}

TEST(TapeCompile, RequiredWidthIsOnePastTheLargestVarIndex) {
  const E t = E::add(E::variable("a", 0), E::variable("d", 3));
  EXPECT_EQ(ir::Tape::compile(t).required_width(), 4u);
  EXPECT_EQ(ir::Tape::compile(E::constant(1.0)).required_width(), 0u);
}

TEST(TapeCompile, FingerprintSeparatesProgramConfigAndOptions) {
  const E a = E::add(E::variable("x", 0), E::constant(0.1));
  const E b = E::sub(E::variable("x", 0), E::constant(0.1));
  ir::EvalConfig nearest;
  ir::EvalConfig upward;
  upward.rounding = sf::Rounding::kUp;
  const auto fp = [](const E& e, const ir::EvalConfig& c) {
    return ir::Tape::compile(e, c).fingerprint();
  };
  EXPECT_EQ(fp(a, nearest), fp(a, nearest));  // deterministic
  EXPECT_NE(fp(a, nearest), fp(b, nearest));  // program
  EXPECT_NE(fp(a, nearest), fp(a, upward));   // rounding
  // Rewrite options change the fingerprint only through the emitted
  // code: contraction turns x*x + 0.1 into an fma, but leaves a tree with
  // no multiply-add shape (and so its fingerprint) alone.
  ir::EvalConfig contract;
  contract.contract_mul_add = true;
  const E mul_add = E::add(E::mul(E::variable("x", 0), E::variable("x", 0)),
                           E::constant(0.1));
  EXPECT_NE(fp(mul_add, nearest), fp(mul_add, contract));
  EXPECT_EQ(fp(a, nearest), fp(a, contract));
}

TEST(TapeCompile, ProcessWideCacheReturnsTheSameTape) {
  ir::Tape::clear_cache();
  const E t = E::add(E::variable("x", 0), E::constant(1.5));
  const auto first = ir::Tape::cached(t);
  const auto second = ir::Tape::cached(t);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = ir::Tape::cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // A different config is a different cache line.
  ir::EvalConfig upward;
  upward.rounding = sf::Rounding::kUp;
  EXPECT_NE(first.get(), ir::Tape::cached(t, upward).get());
}

// ---------------------------------------------------------------------
// Differential parity: tape execution vs the reference tree walk.
// ---------------------------------------------------------------------

TEST(TapeParity, OneRowExecuteMatchesEvaluateEverywhere) {
  st::Xoshiro256pp g(0x7A9E);
  const auto configs = all_configs();
  for (int i = 0; i < 60; ++i) {
    const E tree = random_tree(g, 4);
    const auto bindings = random_bindings(g);
    for (const auto& cfg : configs) {
      const ir::Outcome ref = ir::evaluate(tree, cfg, bindings);
      const ir::Outcome got =
          ir::execute(ir::Tape::compile(tree, cfg), bindings);
      ASSERT_EQ(ref.value.bits, got.value.bits)
          << tree.to_string() << "\n  format " << cfg.format_bits
          << " rounding " << sf::rounding_to_string(cfg.rounding);
      ASSERT_EQ(ref.flags, got.flags)
          << tree.to_string() << ": " << sf::flags_to_string(ref.flags)
          << " vs " << sf::flags_to_string(got.flags) << "\n  format "
          << cfg.format_bits;
    }
  }
}

TEST(TapeParity, ShortBindingsKeepThePerNodeQuietNanContract) {
  // One-row execution preserves evaluate_tree's per-node fallback: a
  // variable beyond the span reads quiet NaN (batched execution instead
  // throws BindingWidthError up front — see the batch suite).
  const E t = E::add(E::variable("a", 0), E::variable("far", 5));
  const std::vector<double> bindings = {2.0};
  const ir::Outcome ref = ir::evaluate(t, {}, bindings);
  const ir::Outcome got = ir::execute(ir::Tape::compile(t), bindings);
  EXPECT_EQ(ref.value.bits, got.value.bits);
  EXPECT_EQ(ref.flags, got.flags);
}

}  // namespace
