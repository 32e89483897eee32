#include "respondent/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "respondent/background_model.hpp"

namespace fpq::respondent {

namespace {

namespace pd = fpq::paperdata;

constexpr std::size_t kCalibrationSample = 4000;

double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

// Mean over the calibration thetas of answered-probability * sigmoid.
double population_correct_rate(const std::vector<double>& thetas,
                               double answered_rate, double beta) {
  double acc = 0.0;
  for (double theta : thetas) acc += sigmoid(theta + beta);
  return answered_rate * acc / static_cast<double>(thetas.size());
}

// Solves beta so the population correct rate hits `target`.
double solve_beta(const std::vector<double>& thetas, double answered_rate,
                  double target) {
  double lo = -12.0, hi = 12.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (population_correct_rate(thetas, answered_rate, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

quiz::Answer wrong_answer(quiz::Truth truth) noexcept {
  return truth == quiz::Truth::kTrue ? quiz::Answer::kFalse
                                     : quiz::Answer::kTrue;
}

}  // namespace

CalibratedQuizModel CalibratedQuizModel::fit(std::uint64_t seed) {
  CalibratedQuizModel model;
  model.mu_core_ = pd::core_quiz_averages().correct;
  model.mu_opt_ = pd::opt_quiz_averages().correct;

  const auto core_truths = quiz::standard_core_truths();
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    const auto& row = pd::core_breakdown()[q];
    model.core_items_[q] = {row.pct_unanswered / 100.0,
                            row.pct_dont_know / 100.0,
                            quiz::to_answer(core_truths[q]),
                            wrong_answer(core_truths[q])};
  }
  // The T/F sheet holds [MADD, Flush to Zero, Fast-math]: Figure 15 rows
  // 0, 1 and 3. Row 2 is the multiple-choice level question.
  const auto opt_rows = pd::opt_breakdown();
  const auto opt_truths = quiz::standard_opt_truths();
  const std::array<std::size_t, quiz::kOptTrueFalseCount> opt_row_of{0, 1,
                                                                     3};
  for (std::size_t q = 0; q < quiz::kOptTrueFalseCount; ++q) {
    const auto& row = opt_rows[opt_row_of[q]];
    OptItem& item = model.opt_items_[q];
    item.unanswered = row.pct_unanswered / 100.0;
    item.correct = row.pct_correct / 100.0;
    item.answered = 1.0 - item.unanswered;
    item.max_correct = item.answered - 0.02;
    item.dk_share =
        row.pct_dont_know / (row.pct_dont_know + row.pct_incorrect);
    item.right = quiz::to_answer(opt_truths[q]);
    item.wrong = wrong_answer(opt_truths[q]);
  }
  const auto& level_row = opt_rows[2];
  model.level_item_.unanswered = level_row.pct_unanswered / 100.0;
  model.level_item_.dont_know = level_row.pct_dont_know / 100.0;
  model.level_item_.correct = level_row.pct_correct / 100.0;
  model.level_item_.answered = 1.0 - model.level_item_.unanswered;

  // Calibration population: ability targets implied by sampled
  // backgrounds (the same generative path the cohort uses).
  stats::Xoshiro256pp g(seed);
  std::vector<double> core_targets, opt_targets;
  core_targets.reserve(kCalibrationSample);
  opt_targets.reserve(kCalibrationSample);
  for (std::size_t i = 0; i < kCalibrationSample; ++i) {
    const auto background = sample_background(g);
    const Ability a = derive_ability(background, g);
    core_targets.push_back(a.core_target);
    opt_targets.push_back(a.opt_target);
  }

  (void)opt_targets;  // the proportional opt model needs no fitting
  const auto core_rows = pd::core_breakdown();

  // Alternate beta-fitting and gamma (unit-slope) tuning; converges in a
  // couple of rounds because the slope varies slowly with beta.
  for (int round = 0; round < 4; ++round) {
    std::vector<double> thetas(core_targets.size());
    for (std::size_t i = 0; i < core_targets.size(); ++i) {
      thetas[i] = model.gamma_core_ * (core_targets[i] - model.mu_core_);
    }
    for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
      const auto& row = core_rows[q];
      const double answered_rate =
          1.0 - (row.pct_dont_know + row.pct_unanswered) / 100.0;
      model.core_beta_[q] =
          solve_beta(thetas, answered_rate, row.pct_correct / 100.0);
    }
    // Mean d(score)/d(theta); want gamma * slope == 1.
    double slope = 0.0;
    for (double theta : thetas) {
      for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
        const auto& row = core_rows[q];
        const double answered_rate =
            1.0 - (row.pct_dont_know + row.pct_unanswered) / 100.0;
        const double p = sigmoid(theta + model.core_beta_[q]);
        slope += answered_rate * p * (1.0 - p);
      }
    }
    slope /= static_cast<double>(thetas.size());
    model.gamma_core_ = 1.0 / slope;
  }

  return model;
}

quiz::CoreSheet CalibratedQuizModel::sample_core(
    const Ability& a, stats::Xoshiro256pp& g) const {
  const double theta = gamma_core_ * (a.core_target - mu_core_);
  quiz::CoreSheet sheet;
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    const CoreItem& item = core_items_[q];
    const double u = item.unanswered;
    const double d =
        std::clamp(item.dont_know * a.dont_know_propensity, 0.0, 0.95);
    const double roll = stats::uniform01(g);
    if (roll < u) {
      sheet.answers[q] = quiz::Answer::kUnanswered;
    } else if (roll < u + d) {
      sheet.answers[q] = quiz::Answer::kDontKnow;
    } else if (stats::bernoulli(g, sigmoid(theta + core_beta_[q]))) {
      sheet.answers[q] = item.right;
    } else {
      sheet.answers[q] = item.wrong;
    }
  }
  return sheet;
}

quiz::OptSheet CalibratedQuizModel::sample_opt(
    const Ability& a, stats::Xoshiro256pp& g) const {
  // Proportional model: ability scales each question's correct
  // probability; the rest of the mass splits between don't-know and
  // incorrect in the published ratio (modulated by hedging propensity).
  const double ratio = std::clamp(a.opt_target / mu_opt_, 0.0, 4.0);
  quiz::OptSheet sheet;
  for (std::size_t q = 0; q < quiz::kOptTrueFalseCount; ++q) {
    const OptItem& item = opt_items_[q];
    const double u = item.unanswered;
    const double c = std::clamp(item.correct * ratio, 0.0, item.max_correct);
    const double d = (item.answered - c) * item.dk_share;
    const double roll = stats::uniform01(g);
    if (roll < u) {
      sheet.tf_answers[q] = quiz::Answer::kUnanswered;
    } else if (roll < u + c) {
      sheet.tf_answers[q] = item.right;
    } else if (roll < u + c + d) {
      sheet.tf_answers[q] = quiz::Answer::kDontKnow;
    } else {
      sheet.tf_answers[q] = item.wrong;
    }
  }

  // Standard-compliant Level (Figure 15 row 2): multiple choice. Ability
  // tilts the correct-choice probability mildly around the published rate.
  const LevelItem& level = level_item_;
  const double u = level.unanswered;
  const double d =
      std::clamp(level.dont_know * a.dont_know_propensity, 0.0, 0.95);
  const double p_correct = std::clamp(
      level.correct + 0.05 * (a.opt_target - mu_opt_), 0.01, 0.60);
  const double roll = stats::uniform01(g);
  if (roll < u) {
    sheet.level_choice = quiz::kOptLevelUnanswered;
  } else if (roll < u + d) {
    sheet.level_choice = quiz::kOptLevelDontKnow;
  } else if (stats::bernoulli(g, p_correct / (level.answered - d))) {
    sheet.level_choice = quiz::kOptLevelCorrectChoice;
  } else {
    // A wrong option, uniformly among the four incorrect ones.
    std::size_t wrong = stats::uniform_below(g, quiz::kOptLevelChoiceCount - 1);
    if (wrong >= quiz::kOptLevelCorrectChoice) ++wrong;
    sheet.level_choice = wrong;
  }
  return sheet;
}

double CalibratedQuizModel::expected_opt_score(
    const Ability& a) const noexcept {
  const double ratio = std::clamp(a.opt_target / mu_opt_, 0.0, 4.0);
  double expected = 0.0;
  for (const OptItem& item : opt_items_) {
    expected += std::clamp(item.correct * ratio, 0.0, item.max_correct);
  }
  return expected;
}

double CalibratedQuizModel::expected_core_score(
    const Ability& a) const noexcept {
  const double theta = gamma_core_ * (a.core_target - mu_core_);
  double expected = 0.0;
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    const CoreItem& item = core_items_[q];
    const double d =
        std::clamp(item.dont_know * a.dont_know_propensity, 0.0, 0.95);
    expected += (1.0 - item.unanswered - d) * sigmoid(theta + core_beta_[q]);
  }
  return expected;
}

}  // namespace fpq::respondent
