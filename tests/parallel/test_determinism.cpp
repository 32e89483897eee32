// fpq::parallel — the bit-identity contract.
//
// Every workload threaded through the pool must produce byte-for-byte the
// same answer at 1, 2, 4 and 8 threads. These tests pin that: each one
// computes a reference with a single-lane pool (inline execution) and
// asserts exact equality — EXPECT_EQ on doubles, never near-equality —
// for pools of every width.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ground_truth.hpp"
#include "core/scoring.hpp"
#include "parallel/thread_pool.hpp"
#include "respondent/population.hpp"
#include "stats/bootstrap.hpp"
#include "stats/prng.hpp"
#include "survey/analysis.hpp"
#include "survey/factor_analysis.hpp"

namespace par = fpq::parallel;
namespace quiz = fpq::quiz;
namespace sv = fpq::survey;
namespace stats = fpq::stats;

namespace {

std::vector<double> sample_data(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp g(seed);
  std::vector<double> out(n);
  for (auto& x : out) {
    x = static_cast<double>(g() >> 11) * 0x1.0p-53;  // uniform [0, 1)
  }
  return out;
}

std::vector<sv::SurveyRecord> cohort() {
  // Deterministic synthetic cohort, larger than the paper's n=199 so the
  // chunked paths actually split.
  static const auto records =
      fpq::respondent::generate_main_cohort(20180521, 600);
  return records;
}

void expect_same_tally(const sv::AverageTally& a, const sv::AverageTally& b) {
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.incorrect, b.incorrect);
  EXPECT_EQ(a.dont_know, b.dont_know);
  EXPECT_EQ(a.unanswered, b.unanswered);
}

class DeterminismTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  par::ThreadPool pool_{GetParam()};
  par::ThreadPool baseline_{1};
};

TEST_P(DeterminismTest, BootstrapIntervalIsBitIdenticalToOneThread) {
  const auto data = sample_data(257, 42);
  const stats::Statistic mean = [](std::span<const double> xs) {
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  };
  const auto ref =
      stats::bootstrap_interval(data, mean, 2000, 0.95, 99, baseline_);
  const auto got =
      stats::bootstrap_interval(data, mean, 2000, 0.95, 99, pool_);
  EXPECT_EQ(ref.estimate, got.estimate);
  EXPECT_EQ(ref.lower, got.lower);
  EXPECT_EQ(ref.upper, got.upper);
}

TEST_P(DeterminismTest, BootstrapMeanIsBitIdenticalToOneThread) {
  const auto data = sample_data(100, 7);
  const auto ref = stats::bootstrap_mean(data, 1000, 0.9, 1234, baseline_);
  const auto got = stats::bootstrap_mean(data, 1000, 0.9, 1234, pool_);
  EXPECT_EQ(ref.estimate, got.estimate);
  EXPECT_EQ(ref.lower, got.lower);
  EXPECT_EQ(ref.upper, got.upper);
}

TEST_P(DeterminismTest, BatchScoringMatchesSerialScoring) {
  const auto records = cohort();
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  std::vector<quiz::CoreSheet> core_sheets;
  std::vector<quiz::OptSheet> opt_sheets;
  for (const auto& r : records) {
    core_sheets.push_back(r.core);
    opt_sheets.push_back(r.opt);
  }

  const auto core_batch =
      quiz::score_core_batch(core_sheets, core_key, pool_);
  const auto opt_batch =
      quiz::score_opt_tf_batch(opt_sheets, opt_key, pool_);
  ASSERT_EQ(core_batch.size(), core_sheets.size());
  ASSERT_EQ(opt_batch.size(), opt_sheets.size());
  for (std::size_t i = 0; i < core_sheets.size(); ++i) {
    const auto serial = quiz::score_core(core_sheets[i], core_key);
    EXPECT_EQ(core_batch[i].correct, serial.correct);
    EXPECT_EQ(core_batch[i].incorrect, serial.incorrect);
    EXPECT_EQ(core_batch[i].dont_know, serial.dont_know);
    EXPECT_EQ(core_batch[i].unanswered, serial.unanswered);
    const auto serial_opt = quiz::score_opt_tf(opt_sheets[i], opt_key);
    EXPECT_EQ(opt_batch[i].correct, serial_opt.correct);
    EXPECT_EQ(opt_batch[i].incorrect, serial_opt.incorrect);
  }
}

TEST_P(DeterminismTest, AnalysisOverloadsMatchSerialBitForBit) {
  const auto records = cohort();
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  expect_same_tally(sv::average_core(records, core_key),
                    sv::average_core(records, core_key, pool_));
  expect_same_tally(sv::average_opt_tf(records, opt_key),
                    sv::average_opt_tf(records, opt_key, pool_));

  const auto ref_hist = sv::core_score_histogram(records, core_key);
  const auto got_hist = sv::core_score_histogram(records, core_key, pool_);
  ASSERT_EQ(ref_hist.bin_count(), got_hist.bin_count());
  EXPECT_EQ(ref_hist.total(), got_hist.total());
  for (int v = ref_hist.lo(); v <= ref_hist.hi(); ++v) {
    EXPECT_EQ(ref_hist.count(v), got_hist.count(v)) << "score " << v;
  }

  const auto ref_rows = sv::core_question_breakdown(records, core_key);
  const auto got_rows = sv::core_question_breakdown(records, core_key, pool_);
  ASSERT_EQ(ref_rows.size(), got_rows.size());
  for (std::size_t q = 0; q < ref_rows.size(); ++q) {
    EXPECT_EQ(ref_rows[q].label, got_rows[q].label);
    EXPECT_EQ(ref_rows[q].pct_correct, got_rows[q].pct_correct);
    EXPECT_EQ(ref_rows[q].pct_incorrect, got_rows[q].pct_incorrect);
    EXPECT_EQ(ref_rows[q].pct_dont_know, got_rows[q].pct_dont_know);
    EXPECT_EQ(ref_rows[q].pct_unanswered, got_rows[q].pct_unanswered);
  }
}

TEST_P(DeterminismTest, FactorAnalysisOverloadsMatchSerialBitForBit) {
  const auto records = cohort();
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  const auto check = [&](const std::vector<sv::FactorLevelResult>& ref,
                         const std::vector<sv::FactorLevelResult>& got) {
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].label, got[i].label);
      EXPECT_EQ(ref[i].n, got[i].n);
      expect_same_tally(ref[i].core, got[i].core);
      expect_same_tally(ref[i].opt, got[i].opt);
    }
  };

  check(sv::by_contributed_size(records, core_key, opt_key),
        sv::by_contributed_size(records, core_key, opt_key, pool_));
  check(sv::by_area_group(records, core_key, opt_key),
        sv::by_area_group(records, core_key, opt_key, pool_));
  check(sv::by_role(records, core_key, opt_key),
        sv::by_role(records, core_key, opt_key, pool_));
  check(sv::by_formal_training(records, core_key, opt_key),
        sv::by_formal_training(records, core_key, opt_key, pool_));
}

INSTANTIATE_TEST_SUITE_P(Lanes, DeterminismTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
