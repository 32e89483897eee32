// fpq::survey — the analysis pipeline: everything the paper computed from
// its raw records, recomputed from ours.
//
// Figure mapping:
//   frequency_table()/multi_select_table()     -> Figures 1-11
//   average_core()/average_opt_tf()            -> Figure 12
//   core_score_histogram()                     -> Figure 13
//   core_question_breakdown()/opt_breakdown()  -> Figures 14-15
//   (factor_analysis.hpp)                      -> Figures 16-21
//   (suspicion_analysis.hpp)                   -> Figure 22
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "stats/histogram.hpp"
#include "survey/record.hpp"

namespace fpq::survey {

/// A computed frequency-table row (mirrors paperdata::CategoryCount).
struct TableRow {
  std::string label;
  std::size_t n = 0;
  double percent = 0.0;
};

/// Single-select factor frequency table over the records; `categories` is
/// the paperdata table supplying labels and the category count, `selector`
/// extracts the index from a record.
using FieldSelector = std::size_t (*)(const SurveyRecord&);
std::vector<TableRow> frequency_table(
    std::span<const SurveyRecord> records,
    std::span<const fpq::paperdata::CategoryCount> categories,
    FieldSelector selector);

/// Multi-select membership table (Figures 4, 6, 7): row n counts records
/// whose selection set contains that row index.
using ListSelector = IndexSet (*)(const SurveyRecord&);
std::vector<TableRow> multi_select_table(
    std::span<const SurveyRecord> records,
    std::span<const fpq::paperdata::CategoryCount> categories,
    ListSelector selector);

/// Average per-respondent outcome counts (Figure 12 rows).
struct AverageTally {
  double correct = 0.0;
  double incorrect = 0.0;
  double dont_know = 0.0;
  double unanswered = 0.0;
};

/// Core quiz averages against the given truth key.
AverageTally average_core(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key);

/// Optimization T/F quiz averages (the level question excluded, as in
/// Figure 12).
AverageTally average_opt_tf(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kOptTrueFalseCount>& key);

/// Histogram of core scores, 0..15 (Figure 13).
stats::IntHistogram core_score_histogram(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key);

/// One question's response-percentage breakdown (Figures 14-15 rows).
struct BreakdownRow {
  std::string label;
  double pct_correct = 0.0;
  double pct_incorrect = 0.0;
  double pct_dont_know = 0.0;
  double pct_unanswered = 0.0;
};

std::vector<BreakdownRow> core_question_breakdown(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kCoreQuestionCount>& key);

/// All four optimization questions including Standard-compliant Level.
std::vector<BreakdownRow> opt_question_breakdown(
    std::span<const SurveyRecord> records,
    const std::array<quiz::Truth, quiz::kOptTrueFalseCount>& key);

}  // namespace fpq::survey
