// fpq::survey — suspicion quiz analysis (Figure 22).
//
// Computes, per exceptional condition, the distribution of reported Likert
// suspicion levels for a cohort, plus the summary quantities the paper
// discusses (ordering by mean suspicion; fraction below maximum for
// Invalid) and a comparison against fpmon's expert advice.
#pragma once

#include <array>
#include <span>
#include <string>

#include "stats/likert.hpp"
#include "survey/record.hpp"

namespace fpq::survey {

/// Distributions in SuspicionItemId (paper) order.
using SuspicionDistributions =
    std::array<stats::LikertDistribution, quiz::kSuspicionItemCount>;

SuspicionDistributions suspicion_distributions(
    std::span<const SurveyRecord> records);
SuspicionDistributions suspicion_distributions(
    std::span<const StudentRecord> records);

/// Summary of one cohort's suspicion behavior.
struct SuspicionSummary {
  /// Mean Likert level per condition, paper order.
  std::array<double, quiz::kSuspicionItemCount> mean_level{};
  /// Fraction reporting below-maximum suspicion for Invalid (the paper
  /// highlights this is ~1/3 — alarmingly high for NaN results).
  double invalid_below_max = 0.0;
  /// True when Invalid has the highest mean and Overflow the second
  /// highest (the "reasonable ranking" of §IV-D).
  bool expert_ordering_holds = false;
};

SuspicionSummary summarize_suspicion(const SuspicionDistributions& dists);

/// Mean absolute distance between a cohort's mean levels and fpmon's
/// advised levels — how far the cohort sits from expert advice.
double distance_from_advice(const SuspicionSummary& summary);

}  // namespace fpq::survey
