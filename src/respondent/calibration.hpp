// fpq::respondent — calibrating the item-response model to the published
// per-question marginals.
//
// Response model for a true/false question q and respondent r:
//
//   P(unanswered)          = u_q                      (Figure 14/15 column)
//   P(don't know)          = clamp(d_q * delta_r)     (d_q from the table,
//                                                      delta_r respondent)
//   P(correct | answered)  = sigmoid(theta_r + beta_q)
//
// with theta_r = gamma * (core_target_r - mu). Calibration solves, per
// question, for the easiness beta_q such that the POPULATION mean correct
// rate equals the published one (bisection against a fixed calibration
// sample of abilities), and tunes gamma so one point of ability target
// moves the expected score by one point (fixed-point iteration on the
// mean logistic slope).
//
// The OPTIMIZATION quiz uses a different shape: with don't-know rates near
// 70% (Figure 15), a unit-slope logistic model cannot exist (there is not
// a full point of answerable mass per ability point). Instead, ability
// scales the published correct rates proportionally — P(correct) =
// c_q * opt_target/mu — and the remaining mass is split between don't-know
// and incorrect in the published ratio; respondents with higher targets
// therefore both answer more and answer better, which is what makes the
// Figure 20/21 category means reachable.
#pragma once

#include <array>
#include <cstdint>

#include "core/scoring.hpp"
#include "respondent/ability_model.hpp"
#include "stats/prng.hpp"

namespace fpq::respondent {

/// A fitted quiz response model; immutable after fit().
class CalibratedQuizModel {
 public:
  /// Fits to the published marginals using `seed` for the calibration
  /// population (deterministic: same seed, same model).
  static CalibratedQuizModel fit(std::uint64_t seed);

  /// Samples one respondent's core answer sheet.
  quiz::CoreSheet sample_core(const Ability& a, stats::Xoshiro256pp& g) const;

  /// Samples one respondent's optimization answer sheet (T/F questions
  /// plus the multiple-choice level question).
  quiz::OptSheet sample_opt(const Ability& a, stats::Xoshiro256pp& g) const;

  // -- Introspection for tests and docs ----------------------------------
  double gamma_core() const noexcept { return gamma_core_; }
  double core_beta(std::size_t q) const noexcept { return core_beta_[q]; }

  /// Expected core score for a given ability under the fitted model
  /// (used by tests to verify the unit-slope property).
  double expected_core_score(const Ability& a) const noexcept;

  /// Expected optimization T/F score for a given ability (proportional
  /// model; linear in opt_target by construction, modulo clamping).
  double expected_opt_score(const Ability& a) const noexcept;

 private:
  CalibratedQuizModel() = default;

  // Per-question constants of the samplers, read once from paperdata and
  // the standard answer key by fit().
  struct CoreItem {
    double unanswered = 0.0;  ///< pct_unanswered / 100
    double dont_know = 0.0;   ///< pct_dont_know / 100
    quiz::Answer right = quiz::Answer::kTrue;
    quiz::Answer wrong = quiz::Answer::kFalse;
  };
  struct OptItem {
    double unanswered = 0.0;   ///< u = pct_unanswered / 100
    double correct = 0.0;      ///< pct_correct / 100
    double answered = 0.0;     ///< 1 - u
    double max_correct = 0.0;  ///< 1 - u - 0.02
    double dk_share = 0.0;     ///< dont_know / (dont_know + incorrect)
    quiz::Answer right = quiz::Answer::kTrue;
    quiz::Answer wrong = quiz::Answer::kFalse;
  };
  struct LevelItem {
    double unanswered = 0.0;  ///< u = pct_unanswered / 100
    double dont_know = 0.0;   ///< pct_dont_know / 100
    double correct = 0.0;     ///< pct_correct / 100
    double answered = 0.0;    ///< 1 - u
  };

  std::array<CoreItem, quiz::kCoreQuestionCount> core_items_{};
  std::array<OptItem, quiz::kOptTrueFalseCount> opt_items_{};
  LevelItem level_item_{};
  std::array<double, quiz::kCoreQuestionCount> core_beta_{};
  double gamma_core_ = 0.4;
  double mu_core_ = 8.5;
  double mu_opt_ = 0.6;
};

}  // namespace fpq::respondent
