#include "respondent/ability_model.hpp"

#include <algorithm>
#include <vector>

#include "paperdata/paperdata.hpp"

namespace fpq::respondent {

namespace {

namespace pd = fpq::paperdata;

// Participant-weighted mean of a factor target table (core column).
double weighted_core_mean(std::span<const pd::FactorLevelTarget> levels) {
  double num = 0.0, den = 0.0;
  for (const auto& l : levels) {
    num += static_cast<double>(l.n) * l.core_correct;
    den += static_cast<double>(l.n);
  }
  return num / den;
}

double weighted_opt_mean(std::span<const pd::FactorLevelTarget> levels) {
  double num = 0.0, den = 0.0;
  for (const auto& l : levels) {
    num += static_cast<double>(l.n) * l.opt_correct;
    den += static_cast<double>(l.n);
  }
  return num / den;
}

}  // namespace

double core_effect_contributed_size(std::size_t fig8_row) noexcept {
  const auto bin = survey::contributed_size_bin(fig8_row);
  if (bin == survey::kNoSizeBin) return 0.0;
  const auto targets = pd::contributed_size_effect();
  return targets[bin].core_correct - weighted_core_mean(targets);
}

double core_effect_area(std::size_t fig2_row) noexcept {
  const auto group =
      static_cast<std::size_t>(survey::area_group_of(fig2_row));
  const auto targets = pd::area_effect();
  return targets[group].core_correct - weighted_core_mean(targets);
}

double core_effect_role(std::size_t fig5_row) noexcept {
  const auto idx = survey::role_index(fig5_row);
  if (idx == survey::kNoRole) return 0.0;
  const auto targets = pd::role_effect();
  return targets[idx].core_correct - weighted_core_mean(targets);
}

double core_effect_training(std::size_t fig3_row) noexcept {
  const auto idx = survey::training_index(fig3_row);
  if (idx == survey::kNoTraining) return 0.0;
  const auto targets = pd::training_effect();
  return targets[idx].core_correct - weighted_core_mean(targets);
}

double opt_effect_area(std::size_t fig2_row) noexcept {
  const auto group =
      static_cast<std::size_t>(survey::area_group_of(fig2_row));
  const auto targets = pd::area_effect();
  return targets[group].opt_correct - weighted_opt_mean(targets);
}

double opt_effect_role(std::size_t fig5_row) noexcept {
  const auto idx = survey::role_index(fig5_row);
  if (idx == survey::kNoRole) return 0.0;
  const auto targets = pd::role_effect();
  return targets[idx].opt_correct - weighted_opt_mean(targets);
}

namespace {

using EffectFn = double (*)(std::size_t) noexcept;

// One factor's centered effect for every row of its paperdata table.
class EffectTable {
 public:
  EffectTable(std::size_t rows, EffectFn effect) : effect_(effect) {
    effects_.reserve(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      effects_.push_back(effect(row));
    }
  }
  double operator()(std::size_t row) const noexcept {
    return row < effects_.size() ? effects_[row] : effect_(row);
  }

 private:
  std::vector<double> effects_;
  EffectFn effect_;
};

// Every constant derive_ability needs, computed once.
struct AbilityTables {
  double mu_core = pd::core_quiz_averages().correct;
  double mu_opt = pd::opt_quiz_averages().correct;
  EffectTable core_size{pd::contributed_codebase_sizes().size(),
                        core_effect_contributed_size};
  EffectTable core_area{pd::areas().size(), core_effect_area};
  EffectTable core_role{pd::dev_roles().size(), core_effect_role};
  EffectTable core_training{pd::formal_training().size(),
                            core_effect_training};
  EffectTable opt_area{pd::areas().size(), opt_effect_area};
  EffectTable opt_role{pd::dev_roles().size(), opt_effect_role};
};

}  // namespace

Ability derive_ability(const survey::BackgroundProfile& background,
                       stats::Xoshiro256pp& g) {
  static const AbilityTables t;
  Ability a;
  a.core_target = t.mu_core + t.core_size(background.contributed_size) +
                  t.core_area(background.area) +
                  t.core_role(background.dev_role) +
                  t.core_training(background.formal_training) +
                  stats::normal(g, 0.0, kCoreResidualSigma);
  a.core_target = std::clamp(a.core_target, 0.5, 14.5);

  a.opt_target = t.mu_opt + t.opt_area(background.area) +
                 t.opt_role(background.dev_role) +
                 stats::normal(g, 0.0, kOptResidualSigma);
  a.opt_target = std::clamp(a.opt_target, 0.0, 3.0);

  a.dont_know_propensity =
      std::clamp(stats::normal(g, 1.0, 0.35), 0.2, 2.2);
  return a;
}

}  // namespace fpq::respondent
