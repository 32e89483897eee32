// Batched IR evaluation: execute_batch over a compiled tape must be
// row-for-row identical to single evaluate() at every thread count and
// chunking. These tests carry the `parallel` ctest label (via the
// test_ir_batch binary) so the determinism contract is re-checked under
// TSan.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "ir/ir.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/prng.hpp"

namespace ir = fpq::ir;
namespace pl = fpq::parallel;
namespace st = fpq::stats;
using E = ir::Expr;

namespace {

ir::BindingTable random_table(std::uint64_t seed, std::size_t width,
                              std::size_t rows) {
  st::Xoshiro256pp g(seed);
  ir::BindingTable table;
  table.width = width;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(width);
    for (auto& x : row) x = st::uniform_range(g, -1e3, 1e3);
    table.push_row(row);
  }
  return table;
}

// A tree using every variable plus flag-raising operations, so per-row
// flag isolation actually matters.
E probe_tree() {
  const auto x = E::variable("x", 0);
  const auto y = E::variable("y", 1);
  return E::add(E::div(E::constant(1.0), x),
                E::sqrt(E::sub(E::mul(x, y), y)));
}

TEST(BindingTable, ShapeAndRowAccess) {
  ir::BindingTable t;
  t.width = 3;
  EXPECT_EQ(t.rows(), 0u);
  const std::array<double, 3> r0{1.0, 2.0, 3.0};
  const std::array<double, 3> r1{4.0, 5.0, 6.0};
  t.push_row(r0);
  t.push_row(r1);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.row(1)[0], 4.0);
  EXPECT_EQ(t.row(1).size(), 3u);
}

TEST(BatchEvaluate, MatchesSingleEvaluatePerRow) {
  const E tree = probe_tree();
  const auto table = random_table(0xAB5, 2, 300);
  pl::ThreadPool pool(4);
  const auto cfg = ir::EvalConfig::ieee_strict();
  const auto batched =
      ir::execute_batch(pool, ir::Tape::compile(tree, cfg), table);
  ASSERT_EQ(batched.size(), table.rows());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    const auto single = ir::evaluate(tree, cfg, table.row(r));
    ASSERT_EQ(batched[r].value.bits, single.value.bits) << "row " << r;
    ASSERT_EQ(batched[r].flags, single.flags) << "row " << r;
  }
}

TEST(BatchEvaluate, RewriteConfigsMatchSingleEvaluateToo) {
  // The batch path must apply the SAME pipeline rewrites as evaluate().
  const auto x = E::variable("x", 0);
  const auto y = E::variable("y", 1);
  const E tree = E::add(E::add(E::mul(x, y), x), y);  // contractable chain
  const auto table = random_table(0xF00D, 2, 128);
  pl::ThreadPool pool(3);
  ir::EvalConfig cfg;
  cfg.contract_mul_add = true;
  cfg.reassociate = true;
  const auto batched =
      ir::execute_batch(pool, ir::Tape::compile(tree, cfg), table);
  for (std::size_t r = 0; r < table.rows(); ++r) {
    const auto single = ir::evaluate(tree, cfg, table.row(r));
    ASSERT_EQ(batched[r].value.bits, single.value.bits) << "row " << r;
    ASSERT_EQ(batched[r].flags, single.flags) << "row " << r;
  }
}

TEST(BatchEvaluate, BitIdenticalAtEveryThreadCountAndChunking) {
  const E tree = probe_tree();
  const auto table = random_table(0x5EED, 2, 500);
  const auto cfg = ir::EvalConfig::ieee_strict();
  ir::BatchOptions fine;
  fine.min_rows_per_chunk = 1;
  ir::BatchOptions coarse;
  coarse.min_rows_per_chunk = 1000;  // single chunk
  pl::ThreadPool one(1);
  pl::ThreadPool many(8);
  const ir::Tape tape = ir::Tape::compile(tree, cfg);
  const auto a = ir::execute_batch(one, tape, table, fine);
  const auto b = ir::execute_batch(many, tape, table, fine);
  const auto c = ir::execute_batch(many, tape, table, coarse);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_TRUE(a[r] == b[r]) << "thread-count divergence at row " << r;
    ASSERT_TRUE(a[r] == c[r]) << "chunking divergence at row " << r;
  }
}

TEST(BatchEvaluate, PerRowFlagsAreIsolated) {
  // Row 0 divides by zero; row 1 is clean. Sharding must not leak row 0's
  // flags into row 1 (each row gets a fresh evaluator).
  const auto x = E::variable("x", 0);
  const E tree = E::div(E::constant(1.0), x);
  ir::BindingTable table;
  table.width = 1;
  const std::array<double, 1> zero{0.0};
  const std::array<double, 1> two{2.0};
  table.push_row(zero);
  table.push_row(two);
  pl::ThreadPool pool(2);
  const auto out = ir::execute_batch(
      pool, ir::Tape::compile(tree, ir::EvalConfig::ieee_strict()), table);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].flags & fpq::softfloat::kFlagDivByZero, 0u);
  EXPECT_EQ(out[1].flags, 0u);
}

TEST(BatchEvaluate, RoundingModeReachesTheResult) {
  // Same tree + bindings under two rounding modes: the configs must
  // fingerprint differently and produce different bits where rounding
  // direction matters.
  const auto x = E::variable("x", 0);
  const E tree = E::div(E::constant(1.0), E::add(x, E::constant(3.0)));
  const auto table = random_table(0xD15C, 1, 64);
  pl::ThreadPool pool(2);
  ir::EvalConfig nearest;
  ir::EvalConfig down;
  down.rounding = fpq::softfloat::Rounding::kDown;
  EXPECT_NE(nearest.fingerprint(), down.fingerprint());
  const auto a =
      ir::execute_batch(pool, ir::Tape::compile(tree, nearest), table);
  const auto b =
      ir::execute_batch(pool, ir::Tape::compile(tree, down), table);
  bool any_differ = false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    any_differ = any_differ || a[r].value.bits != b[r].value.bits;
  }
  EXPECT_TRUE(any_differ) << "rounding mode must reach the result";
}

TEST(BatchEvaluate, EmptyTableIsEmptyResult) {
  pl::ThreadPool pool(2);
  ir::BindingTable empty;
  empty.width = 1;
  const auto out = ir::execute_batch(
      pool, ir::Tape::compile(probe_tree(), ir::EvalConfig::ieee_strict()),
      empty);
  EXPECT_TRUE(out.empty());
}

}  // namespace
