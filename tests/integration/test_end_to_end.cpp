// End-to-end: generate a cohort, push it through the entire analysis
// pipeline, and confirm the pieces compose (figures come out with the
// right shapes and internally consistent numbers).

#include <gtest/gtest.h>

#include <sstream>

#include "core/ground_truth.hpp"
#include "respondent/population.hpp"
#include "survey/analysis.hpp"
#include "survey/csv_io.hpp"
#include "survey/factor_analysis.hpp"
#include "survey/suspicion_analysis.hpp"

namespace sv = fpq::survey;
namespace quiz = fpq::quiz;

namespace {

const std::vector<sv::SurveyRecord>& cohort() {
  static const auto c = fpq::respondent::generate_main_cohort(0xE2E, 199);
  return c;
}

TEST(EndToEnd, QuizAveragesAccountForAllQuestions) {
  const auto avg = sv::average_core(cohort(), quiz::standard_core_truths());
  EXPECT_NEAR(avg.correct + avg.incorrect + avg.dont_know + avg.unanswered,
              15.0, 1e-9);
  const auto opt = sv::average_opt_tf(cohort(), quiz::standard_opt_truths());
  EXPECT_NEAR(opt.correct + opt.incorrect + opt.dont_know + opt.unanswered,
              3.0, 1e-9);
}

TEST(EndToEnd, HistogramTotalsMatchCohort) {
  const auto hist =
      sv::core_score_histogram(cohort(), quiz::standard_core_truths());
  EXPECT_EQ(hist.total(), cohort().size());
  EXPECT_NEAR(hist.mean(),
              sv::average_core(cohort(), quiz::standard_core_truths()).correct,
              1e-9);
}

TEST(EndToEnd, BreakdownRowsSumTo100) {
  const auto rows =
      sv::core_question_breakdown(cohort(), quiz::standard_core_truths());
  for (const auto& row : rows) {
    EXPECT_NEAR(row.pct_correct + row.pct_incorrect + row.pct_dont_know +
                    row.pct_unanswered,
                100.0, 1e-9)
        << row.label;
  }
}

TEST(EndToEnd, FactorLevelsPartitionTheChartedCohort) {
  const auto levels = sv::by_contributed_size(
      cohort(), quiz::standard_core_truths(), quiz::standard_opt_truths());
  std::size_t charted = 0;
  for (const auto& level : levels) charted += level.n;
  std::size_t expected = 0;
  for (const auto& r : cohort()) {
    if (sv::contributed_size_bin(r.background.contributed_size) !=
        sv::kNoSizeBin) {
      ++expected;
    }
  }
  EXPECT_EQ(charted, expected);
}

TEST(EndToEnd, AreaGroupsPartitionWholeCohort) {
  const auto levels = sv::by_area_group(
      cohort(), quiz::standard_core_truths(), quiz::standard_opt_truths());
  std::size_t total = 0;
  for (const auto& level : levels) total += level.n;
  EXPECT_EQ(total, cohort().size()) << "every area collapses to some group";
}

TEST(EndToEnd, SuspicionSummaryShape) {
  const auto dists = sv::suspicion_distributions(
      std::span<const sv::SurveyRecord>(cohort()));
  const auto summary = sv::summarize_suspicion(dists);
  for (double mean : summary.mean_level) {
    EXPECT_GE(mean, 1.0);
    EXPECT_LE(mean, 5.0);
  }
  EXPECT_TRUE(summary.expert_ordering_holds)
      << "cohort calibrated to the paper keeps Invalid > Overflow > rest";
}

TEST(EndToEnd, CsvRoundTripPreservesAnalysis) {
  std::ostringstream out;
  sv::write_csv(out, cohort());
  std::istringstream in(out.str());
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  const auto before =
      sv::average_core(cohort(), quiz::standard_core_truths());
  const auto after = sv::average_core(parsed, quiz::standard_core_truths());
  EXPECT_DOUBLE_EQ(before.correct, after.correct);
  EXPECT_DOUBLE_EQ(before.dont_know, after.dont_know);
}

TEST(EndToEnd, GradingAgainstExecutedKeyMatchesDeclaredKey) {
  // The analysis used the declared standard truths; grading against the
  // key executed on the softfloat backend must give identical results.
  const quiz::AnswerKey executed =
      quiz::derive_answer_key(quiz::find_backend("softfloat-binary64"));
  std::array<quiz::Truth, quiz::kCoreQuestionCount> executed_truths{};
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    executed_truths[q] = executed.core[q].truth;
  }
  const auto declared =
      sv::average_core(cohort(), quiz::standard_core_truths());
  const auto derived = sv::average_core(cohort(), executed_truths);
  EXPECT_DOUBLE_EQ(declared.correct, derived.correct);
  EXPECT_DOUBLE_EQ(declared.incorrect, derived.incorrect);
}

}  // namespace
