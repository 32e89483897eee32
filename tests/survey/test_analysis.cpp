// The analysis pipeline on hand-built records with known answers — the
// pipeline must count exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "survey/analysis.hpp"

namespace sv = fpq::survey;
namespace quiz = fpq::quiz;

namespace {

quiz::CoreSheet perfect_sheet() {
  const auto key = quiz::standard_core_truths();
  quiz::CoreSheet sheet;
  for (std::size_t i = 0; i < quiz::kCoreQuestionCount; ++i) {
    sheet.answers[i] = quiz::to_answer(key[i]);
  }
  return sheet;
}

quiz::CoreSheet inverted_sheet() {
  const auto key = quiz::standard_core_truths();
  quiz::CoreSheet sheet;
  for (std::size_t i = 0; i < quiz::kCoreQuestionCount; ++i) {
    sheet.answers[i] = key[i] == quiz::Truth::kTrue ? quiz::Answer::kFalse
                                                    : quiz::Answer::kTrue;
  }
  return sheet;
}

TEST(Analysis, AverageCoreOnKnownRecords) {
  std::vector<sv::SurveyRecord> records(2);
  records[0].core = perfect_sheet();   // 15 correct
  records[1].core = inverted_sheet();  // 15 incorrect
  const auto avg = sv::average_core(records, quiz::standard_core_truths());
  EXPECT_DOUBLE_EQ(avg.correct, 7.5);
  EXPECT_DOUBLE_EQ(avg.incorrect, 7.5);
  EXPECT_DOUBLE_EQ(avg.dont_know, 0.0);
}

TEST(Analysis, AverageOptTfOnKnownRecords) {
  std::vector<sv::SurveyRecord> records(1);
  records[0].opt.tf_answers = {quiz::Answer::kFalse, quiz::Answer::kFalse,
                               quiz::Answer::kTrue};  // all correct
  const auto avg = sv::average_opt_tf(records, quiz::standard_opt_truths());
  EXPECT_DOUBLE_EQ(avg.correct, 3.0);
  EXPECT_DOUBLE_EQ(avg.dont_know, 0.0);
}

TEST(Analysis, HistogramPlacesScores) {
  std::vector<sv::SurveyRecord> records(3);
  records[0].core = perfect_sheet();
  records[1].core = perfect_sheet();
  records[2].core = inverted_sheet();
  const auto hist =
      sv::core_score_histogram(records, quiz::standard_core_truths());
  EXPECT_EQ(hist.count(15), 2u);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_DOUBLE_EQ(hist.mean(), 10.0);
}

TEST(Analysis, CoreBreakdownPercentages) {
  std::vector<sv::SurveyRecord> records(4);
  records[0].core = perfect_sheet();
  records[1].core = perfect_sheet();
  records[2].core = inverted_sheet();
  // records[3] stays unanswered.
  const auto rows =
      sv::core_question_breakdown(records, quiz::standard_core_truths());
  ASSERT_EQ(rows.size(), quiz::kCoreQuestionCount);
  for (const auto& row : rows) {
    EXPECT_DOUBLE_EQ(row.pct_correct, 50.0) << row.label;
    EXPECT_DOUBLE_EQ(row.pct_incorrect, 25.0) << row.label;
    EXPECT_DOUBLE_EQ(row.pct_unanswered, 25.0) << row.label;
  }
  EXPECT_EQ(rows[0].label, "Commutativity");
  EXPECT_EQ(rows[14].label, "Exception Signal");
}

TEST(Analysis, OptBreakdownIncludesLevelRow) {
  std::vector<sv::SurveyRecord> records(2);
  records[0].opt.level_choice = quiz::kOptLevelCorrectChoice;
  records[1].opt.level_choice = 0;  // wrong
  const auto rows =
      sv::opt_question_breakdown(records, quiz::standard_opt_truths());
  ASSERT_EQ(rows.size(), quiz::kOptQuestionCount);
  EXPECT_EQ(rows[2].label, "Standard-compliant Level");
  EXPECT_DOUBLE_EQ(rows[2].pct_correct, 50.0);
  EXPECT_DOUBLE_EQ(rows[2].pct_incorrect, 50.0);
  // T/F rows in paper order around it.
  EXPECT_EQ(rows[0].label, "MADD");
  EXPECT_EQ(rows[3].label, "Fast-math");
  EXPECT_DOUBLE_EQ(rows[0].pct_unanswered, 100.0);
}

TEST(Analysis, FrequencyTableCounts) {
  std::vector<sv::SurveyRecord> records(4);
  records[0].background.position = 0;
  records[1].background.position = 0;
  records[2].background.position = 1;
  records[3].background.position = 9;
  const auto rows = sv::frequency_table(
      records, fpq::paperdata::positions(),
      [](const sv::SurveyRecord& r) { return r.background.position; });
  ASSERT_EQ(rows.size(), fpq::paperdata::positions().size());
  EXPECT_EQ(rows[0].n, 2u);
  EXPECT_EQ(rows[1].n, 1u);
  EXPECT_EQ(rows[9].n, 1u);
  EXPECT_DOUBLE_EQ(rows[0].percent, 50.0);
  EXPECT_EQ(rows[0].label, "Ph.D. student");
}

TEST(Analysis, MultiSelectTableCounts) {
  std::vector<sv::SurveyRecord> records(2);
  records[0].background.fp_languages = {0, 1};
  records[1].background.fp_languages = {0};
  const auto rows = sv::multi_select_table(
      records, fpq::paperdata::fp_languages(),
      [](const sv::SurveyRecord& r) { return r.background.fp_languages; });
  EXPECT_EQ(rows[0].n, 2u);  // Python
  EXPECT_EQ(rows[1].n, 1u);  // C
  EXPECT_DOUBLE_EQ(rows[0].percent, 100.0);
}

TEST(Analysis, EmptyRecordsGiveZeroes) {
  const std::vector<sv::SurveyRecord> none;
  const auto avg = sv::average_core(none, quiz::standard_core_truths());
  EXPECT_DOUBLE_EQ(avg.correct, 0.0);
  const auto hist =
      sv::core_score_histogram(none, quiz::standard_core_truths());
  EXPECT_EQ(hist.total(), 0u);
}

// Regression: the legacy loops divided by records.size(), so an empty
// cohort produced NaN percentages. Every entry point must now return
// zeros. std::isnan would also fail the == 0.0 checks, but assert it
// explicitly so the failure message names the bug.
TEST(Analysis, EmptyCohortNeverProducesNaN) {
  const std::vector<sv::SurveyRecord> none;

  const auto avg_opt = sv::average_opt_tf(none, quiz::standard_opt_truths());
  EXPECT_FALSE(std::isnan(avg_opt.correct));
  EXPECT_DOUBLE_EQ(avg_opt.unanswered, 0.0);

  const auto freq = sv::frequency_table(
      none, fpq::paperdata::positions(),
      [](const sv::SurveyRecord& r) { return r.background.position; });
  for (const auto& row : freq) {
    EXPECT_FALSE(std::isnan(row.percent)) << row.label;
    EXPECT_DOUBLE_EQ(row.percent, 0.0) << row.label;
  }

  const auto multi = sv::multi_select_table(
      none, fpq::paperdata::fp_languages(),
      [](const sv::SurveyRecord& r) { return r.background.fp_languages; });
  for (const auto& row : multi) EXPECT_DOUBLE_EQ(row.percent, 0.0);

  const auto core_rows =
      sv::core_question_breakdown(none, quiz::standard_core_truths());
  ASSERT_EQ(core_rows.size(), quiz::kCoreQuestionCount);
  for (const auto& row : core_rows) {
    EXPECT_FALSE(std::isnan(row.pct_correct)) << row.label;
    EXPECT_DOUBLE_EQ(row.pct_correct, 0.0) << row.label;
    EXPECT_DOUBLE_EQ(row.pct_unanswered, 0.0) << row.label;
  }

  const auto opt_rows =
      sv::opt_question_breakdown(none, quiz::standard_opt_truths());
  for (const auto& row : opt_rows) {
    EXPECT_FALSE(std::isnan(row.pct_correct)) << row.label;
    EXPECT_DOUBLE_EQ(row.pct_correct, 0.0) << row.label;
  }
}

}  // namespace
