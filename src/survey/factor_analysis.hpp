// fpq::survey — factor-conditioned quiz performance (Figures 16-21).
//
// For each background factor the paper charts, computes the mean
// per-respondent outcome counts (correct / incorrect / don't-know /
// unanswered) at every factor level — core quiz out of 15 and, where the
// paper charts it, optimization T/F quiz out of 3.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "survey/analysis.hpp"

namespace fpq::survey {

/// One factor level's conditioned averages.
struct FactorLevelResult {
  std::string label;
  std::size_t n = 0;        ///< respondents at this level
  AverageTally core;        ///< out of 15
  AverageTally opt;         ///< out of 3 (T/F questions)
};

using CoreKey = std::array<quiz::Truth, quiz::kCoreQuestionCount>;
using OptKey = std::array<quiz::Truth, quiz::kOptTrueFalseCount>;

/// Figure 16: by ordered contributed-codebase-size bin.
std::vector<FactorLevelResult> by_contributed_size(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key);

/// Figures 17 / 20: by collapsed area group.
std::vector<FactorLevelResult> by_area_group(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key);

/// Figures 18 / 21: by software development role.
std::vector<FactorLevelResult> by_role(std::span<const SurveyRecord> records,
                                       const CoreKey& core_key,
                                       const OptKey& opt_key);

/// Figure 19: by formal training level (increasing order).
std::vector<FactorLevelResult> by_formal_training(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key);

/// The spread (max - min) of mean core-correct across levels — the
/// "variation across the values of the factor" the paper reports.
double core_correct_spread(std::span<const FactorLevelResult> levels);

}  // namespace fpq::survey
