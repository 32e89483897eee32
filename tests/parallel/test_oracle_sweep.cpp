// fpq::parallel — the sharded differential oracle itself.
//
// The sweeps are the load-bearing claim of the whole harness (softfloat
// agrees with exact references / native hardware), so beyond "zero
// mismatches" these tests pin the engine's contract: reports are pure
// functions of the config — independent of thread count and chunking —
// and every run checks every case.

#include <gtest/gtest.h>

#include <cstdint>

#include "parallel/oracle_sweep.hpp"
#include "parallel/thread_pool.hpp"

namespace par = fpq::parallel;

namespace {

par::SweepConfig small_config() {
  par::SweepConfig config;
  config.cases_per_task = 256;
  config.tasks_per_axis = 4;
  return config;
}

TEST(OracleSweep, Binary16SweepFindsNoMismatches) {
  par::ThreadPool pool;
  const auto report =
      par::run_binary16_sweep(pool, small_config());
  EXPECT_EQ(report.mismatches, 0u) << report.first_mismatch;
  // 6 ops x 5 modes x 4 classes x 4 tasks x 256 cases.
  EXPECT_EQ(report.tasks, 6u * 5u * 4u * 4u);
  EXPECT_EQ(report.checked, report.tasks * 256u);
}

TEST(OracleSweep, NativeSweepsFindNoMismatchesAndSkipTiesAway) {
  par::ThreadPool pool;
  for (const int bits : {32, 64}) {
    const auto report =
        par::run_native_sweep(pool, bits, small_config());
    EXPECT_EQ(report.mismatches, 0u)
        << "binary" << bits << ": " << report.first_mismatch;
    // roundTiesToAway is not hardware-expressible: 4 modes remain.
    EXPECT_EQ(report.tasks, 6u * 4u * 4u * 4u) << "binary" << bits;
  }
}

TEST(OracleSweep, ReportIsIndependentOfThreadCount) {
  const auto config = small_config();
  par::ThreadPool one(1);
  const auto ref = par::run_binary16_sweep(one, config);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    par::ThreadPool pool(threads);
    const auto got = par::run_binary16_sweep(pool, config);
    EXPECT_EQ(got.checked, ref.checked) << threads << " threads";
    EXPECT_EQ(got.mismatches, ref.mismatches) << threads << " threads";
    EXPECT_EQ(got.tasks, ref.tasks) << threads << " threads";
  }
}

TEST(OracleSweep, RepeatSweepRechecksEveryCase) {
  // Verdicts are never served from a cache: a second run of the same
  // config checks every case again and reaches the same counts.
  par::ThreadPool pool;
  const auto config = small_config();
  const auto first = par::run_binary16_sweep(pool, config);
  const auto second = par::run_binary16_sweep(pool, config);
  EXPECT_EQ(second.tasks, first.tasks);
  EXPECT_EQ(second.checked, first.checked);
  EXPECT_EQ(second.checked, second.tasks * config.cases_per_task);
  EXPECT_EQ(second.mismatches, first.mismatches);
}

TEST(OracleSweep, ExhaustiveReportIsIndependentOfChunkingAndThreads) {
  // Small cell (one op, one mode) so the cross-product of chunkings and
  // thread counts stays fast. Per-(cell, operand) seeding means even the
  // partner operands must agree across every decomposition.
  par::ExhaustiveConfig config;
  config.ops = {par::SweepOp::kMul};
  config.modes = {fpq::softfloat::Rounding::kNearestAway};
  config.samples_per_operand = 1;

  par::ThreadPool one(1);
  config.chunks_per_cell = 64;
  const auto ref = par::run_exhaustive_binary16(one, config);
  EXPECT_EQ(ref.checked, 0x10000u);
  EXPECT_EQ(ref.mismatches, 0u) << ref.first_mismatch;

  for (const std::size_t chunks : {std::size_t{1}, std::size_t{7},
                                   std::size_t{256}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      par::ThreadPool pool(threads);
      config.chunks_per_cell = chunks;
      const auto got = par::run_exhaustive_binary16(pool, config);
      EXPECT_EQ(got.checked, ref.checked)
          << chunks << " chunks, " << threads << " threads";
      EXPECT_EQ(got.mismatches, 0u)
          << chunks << " chunks, " << threads << " threads: "
          << got.first_mismatch;
    }
  }
}

TEST(OracleSweep, ConfigSubsettingScalesTheTaskCount) {
  par::ThreadPool pool;
  par::SweepConfig config = small_config();
  config.ops = {par::SweepOp::kAdd, par::SweepOp::kFma};
  config.modes = {fpq::softfloat::Rounding::kNearestEven};
  config.classes = {par::OperandClass::kSubnormal,
                    par::OperandClass::kSpecial};
  const auto report = par::run_binary16_sweep(pool, config);
  EXPECT_EQ(report.tasks, 2u * 1u * 2u * 4u);
  EXPECT_EQ(report.mismatches, 0u) << report.first_mismatch;
}

}  // namespace
