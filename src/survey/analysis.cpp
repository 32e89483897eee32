// Thin wrappers over the mergeable accumulators in accumulators.hpp: each
// entry point folds the records into one accumulator and finishes it. A
// sharded run (parallel::stream_accumulate over the same accumulators)
// ends in the same finish() division, so it agrees bit for bit.
#include "survey/analysis.hpp"

#include "survey/accumulators.hpp"

namespace fpq::survey {

namespace {

template <typename Acc>
Acc fold_span(std::span<const SurveyRecord> records, Acc acc) {
  for (const auto& record : records) acc.add(record);
  return acc;
}

}  // namespace

std::vector<TableRow> frequency_table(
    std::span<const SurveyRecord> records,
    std::span<const fpq::paperdata::CategoryCount> categories,
    FieldSelector selector) {
  return fold_span(records, FrequencyAccumulator(categories, selector))
      .finish();
}

std::vector<TableRow> multi_select_table(
    std::span<const SurveyRecord> records,
    std::span<const fpq::paperdata::CategoryCount> categories,
    ListSelector selector) {
  return fold_span(records, MultiSelectAccumulator(categories, selector))
      .finish();
}

AverageTally average_core(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key) {
  return fold_span(records, AverageTallyAccumulator::core(key)).finish();
}

AverageTally average_opt_tf(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kOptTrueFalseCount>& key) {
  return fold_span(records, AverageTallyAccumulator::opt_tf(key)).finish();
}

stats::IntHistogram core_score_histogram(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key) {
  return fold_span(records, ScoreHistogramAccumulator(key)).finish();
}

std::vector<BreakdownRow> core_question_breakdown(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key) {
  return fold_span(records, BreakdownAccumulator::core(key)).finish();
}

std::vector<BreakdownRow> opt_question_breakdown(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kOptTrueFalseCount>& key) {
  return fold_span(records, BreakdownAccumulator::opt(key)).finish();
}

}  // namespace fpq::survey
