// The batched tape executor's contract: SoA execution over the thread
// pool is bit- and flag-identical to per-row reference evaluation, at
// EVERY thread count and under every kernel variant; short binding tables
// fail structurally (BindingWidthError) instead of quiet-NaN-poisoning
// rows; and a malformed row block is rejected, not read.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "ir/ir.hpp"
#include "parallel/result_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/kernels.hpp"
#include "stats/prng.hpp"

namespace ir = fpq::ir;
namespace par = fpq::parallel;
namespace sf = fpq::softfloat;
namespace st = fpq::stats;
using E = ir::Expr;

namespace {

const double kPool[] = {
    0.0,     -0.0,    1.0,    -1.0,   0.5,     3.0,
    0.1,     1.0 / 3, -2.5,   7.25,   1e16,    -1e16,
    1e300,   -1e300,  1e-300, 5e-324, 2.2250738585072014e-308,
    1.0 + 0x1.0p-30, 1.7976931348623157e308};

E horner_poly() {
  // Degree-4 Horner over x: enough structure to need several registers
  // and raise inexact/overflow/underflow across the operand pool.
  const E x = E::variable("x", 0);
  E acc = E::constant(1.25);
  const double coeffs[] = {-0.5, 0.1, 2.0, -1.0 / 3};
  for (const double c : coeffs) {
    acc = E::add(E::mul(acc, x), E::constant(c));
  }
  return acc;
}

E two_var_tree() {
  const E x = E::variable("x", 0);
  const E y = E::variable("y", 1);
  return E::add(E::div(E::sqrt(E::mul(x, x)), E::add(y, E::constant(0.1))),
                E::fma(x, y, E::neg(x)));
}

ir::BindingTable random_table(std::size_t rows, std::size_t width,
                              std::uint64_t seed) {
  st::Xoshiro256pp g(seed);
  ir::BindingTable table;
  table.width = width;
  for (std::size_t r = 0; r < rows * width; ++r) {
    table.values.push_back(kPool[st::uniform_below(g, std::size(kPool))]);
  }
  return table;
}

std::vector<ir::EvalConfig> batch_configs() {
  std::vector<ir::EvalConfig> out;
  for (const int fmt : {16, 32, 64, sf::kBFloat16}) {
    ir::EvalConfig cfg;
    cfg.format_bits = fmt;
    out.push_back(cfg);
    ir::EvalConfig fast;
    fast.format_bits = fmt;
    fast.rounding = sf::Rounding::kTowardZero;
    fast.contract_mul_add = true;
    fast.reassociate = true;
    fast.flush_to_zero = true;
    fast.denormals_are_zero = true;
    out.push_back(fast);
  }
  return out;
}

TEST(TapeBatch, MatchesPerRowEvaluateAcrossFormatsAndConfigs) {
  par::ThreadPool pool(4);
  const ir::BindingTable table = random_table(257, 2, 0xB17C);
  for (const E& tree : {two_var_tree(), horner_poly()}) {
    for (const auto& cfg : batch_configs()) {
      const ir::Tape tape = ir::Tape::compile(tree, cfg);
      const auto got = ir::execute_batch(pool, tape, table);
      ASSERT_EQ(got.size(), table.rows());
      for (std::size_t r = 0; r < table.rows(); ++r) {
        const ir::Outcome ref = ir::evaluate(tree, cfg, table.row(r));
        ASSERT_EQ(ref.value.bits, got[r].value.bits)
            << "row " << r << " format " << cfg.format_bits;
        ASSERT_EQ(ref.flags, got[r].flags)
            << "row " << r << " format " << cfg.format_bits;
      }
    }
  }
}

// The ops the other trees leave out: subtraction and both comparisons.
E sub_compare_tree() {
  const E x = E::variable("x", 0);
  const E y = E::variable("y", 1);
  return E::add(E::sub(x, E::mul(y, E::constant(3.0))),
                E::sub(E::cmp_lt(x, y), E::cmp_eq(x, E::neg(y))));
}

// Every encoding class of the format as table values: uniformly random
// patterns (NaNs, infinities and subnormals included) plus the double pool.
ir::BindingTable patterned_table(int format_bits, std::size_t rows,
                                 std::size_t width, std::uint64_t seed) {
  st::Xoshiro256pp g(seed);
  ir::BindingTable table = random_table(rows, width, seed);
  sf::Env quiet;
  for (std::size_t i = 0; i < table.values.size(); i += 2) {
    const std::uint64_t bits = g();
    table.values[i] =
        format_bits == 16
            ? sf::to_native(sf::convert<64>(
                  sf::Float16{static_cast<std::uint16_t>(bits)}, quiet))
            : static_cast<double>(
                  std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  return table;
}

// Binary32 and binary16 tapes run on the softfloat batch kernels of
// whichever variant is active, so per-row parity with the scalar tree
// walk must hold under every variant: the per-variant check of the
// arithmetic ops inside a tape.
void expect_per_row_parity_under_every_variant(int format_bits,
                                               std::uint64_t seed) {
  std::vector<sf::KernelVariant> variants{sf::KernelVariant::kScalar,
                                          sf::KernelVariant::kPortable};
  if (sf::kernel_variant_available(sf::KernelVariant::kAvx2)) {
    variants.push_back(sf::KernelVariant::kAvx2);
  }
  par::ThreadPool pool(4);
  const ir::BindingTable table = patterned_table(format_bits, 1031, 2, seed);
  for (const sf::KernelVariant v : variants) {
    sf::ScopedKernelVariant forced(v);
    ASSERT_TRUE(forced.applied()) << sf::kernel_variant_name(v);
    // sqrt of a bare operand reaches negative subnormals, which DAZ must
    // not flush before the sign check (invalid, not -0).
    for (const E& tree : {two_var_tree(), horner_poly(), sub_compare_tree(),
                          E::sqrt(E::variable("x", 0))}) {
      for (const sf::Rounding mode :
           {sf::Rounding::kNearestEven, sf::Rounding::kNearestAway,
            sf::Rounding::kTowardZero, sf::Rounding::kUp,
            sf::Rounding::kDown}) {
        for (const bool flush : {false, true}) {
          ir::EvalConfig cfg;
          cfg.format_bits = format_bits;
          cfg.rounding = mode;
          cfg.flush_to_zero = flush;
          cfg.denormals_are_zero = flush;
          const ir::Tape tape = ir::Tape::compile(tree, cfg);
          const auto got = ir::execute_batch(pool, tape, table);
          ASSERT_EQ(got.size(), table.rows());
          for (std::size_t r = 0; r < table.rows(); ++r) {
            const ir::Outcome ref = ir::evaluate(tree, cfg, table.row(r));
            ASSERT_EQ(ref.value.bits, got[r].value.bits)
                << "row " << r << " variant " << sf::kernel_variant_name(v)
                << " mode " << static_cast<int>(mode) << " flush " << flush;
            ASSERT_EQ(ref.flags, got[r].flags)
                << "row " << r << " variant " << sf::kernel_variant_name(v)
                << " mode " << static_cast<int>(mode) << " flush " << flush;
          }
        }
      }
    }
  }
}

TEST(TapeBatch, Binary32MatchesPerRowEvaluateUnderEveryKernelVariant) {
  expect_per_row_parity_under_every_variant(32, 0xB32);
}

TEST(TapeBatch, Binary16MatchesPerRowEvaluateUnderEveryKernelVariant) {
  expect_per_row_parity_under_every_variant(16, 0xB16);
}

TEST(TapeBatch, BitIdenticalAtOneTwoFourEightThreads) {
  const ir::BindingTable table = random_table(1023, 1, 0xDE7);
  const ir::Tape tape = ir::Tape::compile(horner_poly());
  ir::BatchOptions options;
  options.min_rows_per_chunk = 32;
  par::ThreadPool one(1);
  const auto ref = ir::execute_batch(one, tape, table, options);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    const auto got = ir::execute_batch(pool, tape, table, options);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t r = 0; r < ref.size(); ++r) {
      ASSERT_EQ(ref[r].value.bits, got[r].value.bits)
          << "threads " << threads << " row " << r;
      ASSERT_EQ(ref[r].flags, got[r].flags)
          << "threads " << threads << " row " << r;
    }
  }
}

TEST(TapeBatch, ShortTableThrowsStructuredWidthError) {
  par::ThreadPool pool(2);
  const E tree = two_var_tree();  // needs width 2
  const ir::BindingTable narrow = random_table(64, 1, 0x5407);
  const ir::Tape tape = ir::Tape::compile(tree);
  try {
    (void)ir::execute_batch(pool, tape, narrow);
    FAIL() << "expected BindingWidthError";
  } catch (const ir::BindingWidthError& e) {
    EXPECT_EQ(e.required, 2u);
    EXPECT_EQ(e.provided, 1u);
  }
  std::vector<ir::Outcome> out(narrow.rows());
  EXPECT_THROW(ir::execute_rows(tape, narrow.values, narrow.width, out),
               ir::BindingWidthError);
  // An empty table never validates: there is nothing to evaluate.
  const ir::BindingTable empty;
  EXPECT_TRUE(ir::execute_batch(pool, tape, empty).empty());
}

// execute_rows validates its block before reading it: a width below the
// tape's, a block that is not whole rows (a zero width included) or an
// output of the wrong size throws instead of reading past the values or
// writing past `out`.
TEST(TapeBatch, ExecuteRowsRejectsMalformedBlocks) {
  const ir::BindingTable table = random_table(16, 2, 0x4A96);
  const ir::Tape tape = ir::Tape::compile(two_var_tree());
  const std::span<const double> rows(table.values);
  std::vector<ir::Outcome> out(4);
  EXPECT_THROW(ir::execute_rows(tape, rows.first(4), 1, out),
               ir::BindingWidthError);
  EXPECT_THROW(ir::execute_rows(tape, rows.first(7), 2, out),
               std::invalid_argument);
  EXPECT_THROW(ir::execute_rows(tape, rows.first(6), 2, out),
               std::invalid_argument);
  EXPECT_THROW(ir::execute_rows(tape, rows.first(10), 2, out),
               std::invalid_argument);
  const ir::Tape closed = ir::Tape::compile(E::constant(1.5));
  EXPECT_THROW(ir::execute_rows(closed, {}, 0, std::span<ir::Outcome>()),
               std::invalid_argument);
  // The last four rows are a valid block and match per-row evaluation.
  ir::execute_rows(tape, rows.subspan(24), 2, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const ir::Outcome ref =
        ir::evaluate(two_var_tree(), {}, table.row(12 + i));
    EXPECT_EQ(ref.value.bits, out[i].value.bits) << "row " << 12 + i;
    EXPECT_EQ(ref.flags, out[i].flags) << "row " << 12 + i;
  }
}

// The striped memo cache's capacity bound, through BatchResultCache.
TEST(TapeBatch, CacheCapacityEvictsAndCounts) {
  par::BatchResultCache cache;
  cache.set_capacity(32);
  par::BatchChunkResult payload;
  payload.outcomes.emplace_back(0x3FF0000000000000ULL, 0u);
  for (std::uint32_t i = 0; i < 512; ++i) {
    par::BatchKey key;
    key.tape_fingerprint = 0x7EA9 + i;
    key.bindings_hash = i * 0x9E3779B97F4A7C15ULL;
    key.chunk = i;
    cache.insert(key, payload);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  // Per-stripe bound is capacity/16 = 2, so 16 stripes * 2 entries max.
  EXPECT_LE(stats.entries, 32u);
  cache.set_capacity(0);
}

}  // namespace
