// fpq::survey — the paper's Figures 1-22 as one fold and one claim table.
//
// FigureAccumulator folds a main cohort and a student cohort once through
// every figure accumulator (accumulators.hpp); finish() turns the results
// into the paper-vs-measured claims, one block per figure group.
// bench_figures prints the blocks; the seed-parametrized integration test
// requires that none deviates.
//
// The tolerance rule (every figure claim takes its tolerance from it,
// nowhere else):
//
//   * a count or percentage gets k binomial sigmas at the cohort's n,
//     sigma taken at the paper's proportion;
//   * a mean gets k standard errors s / sqrt(n) at the level's n, where s
//     is the cohort-wide standard deviation of that per-respondent tally
//     (it also carries the between-level variance, so it is the larger);
//   * a spread (max - min over a factor's levels) gets k standard errors
//     of the difference of its two extreme level means;
//   * a claim on fewer than kMinSampleN respondents is untestable:
//     reported apart, never counted as OK.
//
// k = 4.5 comes from a family-wise false-failure rate of 1 % over the 233
// distance claims at the six seeds the integration test pins: 1398 tests,
// a two-sided 4.5-sigma normal tail of 6.8e-6, Bonferroni bound 0.95 %.
// Counts of one or two respondents are skewed, so the measured rate is
// higher: over 2000 fresh seeds, 1.9 % of cohorts fail a distance claim
// other than "opt #unanswered", which 8 % fail (the respondent model
// gives 0.06 where the paper prints 0.1).
//
// The other claims are shape predicates from the paper's prose (who wins,
// what dominates, which rows are majority-wrong), judged by whether they
// hold. Four fail 4.7-11 % of fresh seeds each: the 95 % bootstrap CI,
// the histogram mode, and students below the main cohort on Underflow
// and on Denorm.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "report/compare.hpp"
#include "survey/accumulators.hpp"

namespace fpq::survey {

/// The tolerance multiplier and the smallest sample a claim is tested on.
inline constexpr double kClaimSigmas = 4.5;
inline constexpr std::size_t kMinSampleN = 5;

/// One figure group's claims, with the charts printed above them.
struct FigureBlock {
  std::string title;
  std::string charts;  ///< rendered chart sections; may be empty
  std::vector<report::ComparisonRow> claims;
  int decimals = 2;
};

/// Serial fold of both cohorts through every figure accumulator, keyed
/// by the standard (executed) answer key. Keeps each respondent's quiz
/// tallies for the standard deviations, so it suits survey-sized
/// cohorts, not the streaming scale.
class FigureAccumulator {
 public:
  FigureAccumulator();

  void add(const SurveyRecord& record);
  void add(const StudentRecord& record) noexcept;

  /// The claim table: every paper-vs-measured claim of Figures 1-22, in
  /// figure order.
  std::vector<FigureBlock> finish() const;

 private:
  CoreKey core_key_;
  OptKey opt_key_;
  std::vector<FrequencyAccumulator> single_;   // Figures 1-3, 5, 8-11
  std::vector<MultiSelectAccumulator> multi_;  // Figures 4, 6, 7
  AverageTallyAccumulator core_avg_;
  AverageTallyAccumulator opt_avg_;
  ScoreHistogramAccumulator core_hist_;
  BreakdownAccumulator core_breakdown_;
  BreakdownAccumulator opt_breakdown_;
  FactorLevelAccumulator by_size_;
  FactorLevelAccumulator by_area_;
  FactorLevelAccumulator by_role_;
  FactorLevelAccumulator by_training_;
  SuspicionAccumulator main_suspicion_;
  SuspicionAccumulator student_suspicion_;
  // Per-respondent core then opt tallies: correct, incorrect,
  // don't-know, unanswered.
  std::array<std::vector<double>, 8> tallies_;
};

}  // namespace fpq::survey
