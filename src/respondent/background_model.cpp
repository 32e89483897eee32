#include "respondent/background_model.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "paperdata/paperdata.hpp"
#include "stats/categorical.hpp"

namespace fpq::respondent {

namespace {

namespace pd = fpq::paperdata;

stats::CategoricalDistribution from_counts(
    std::span<const pd::CategoryCount> rows) {
  std::vector<double> weights;
  weights.reserve(rows.size());
  for (const auto& row : rows) {
    weights.push_back(static_cast<double>(row.n));
  }
  return stats::CategoricalDistribution(weights);
}

// One multi-select figure: an independent Bernoulli draw per option, in
// row order, at the option's published selection rate n / 199.
class MultiSelect {
 public:
  explicit MultiSelect(std::span<const pd::CategoryCount> rows) {
    if (rows.size() > survey::IndexSet::kCapacity) {
      throw std::length_error("MultiSelect: more rows than an IndexSet holds");
    }
    rates_.reserve(rows.size());
    for (const auto& row : rows) {
      rates_.push_back(static_cast<double>(row.n) /
                       static_cast<double>(pd::kMainCohortSize));
    }
  }

  // Branch-free: the outcomes are random, so a branch per option would
  // mispredict about as often as an option is picked.
  survey::IndexSet sample(stats::Xoshiro256pp& g) const {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      mask |= std::uint32_t{stats::bernoulli(g, rates_[i])} << i;
    }
    return survey::IndexSet::from_mask(mask);
  }

 private:
  std::vector<double> rates_;
};

// Every background table, built once from paperdata.
struct BackgroundTables {
  stats::CategoricalDistribution positions = from_counts(pd::positions());
  stats::CategoricalDistribution areas = from_counts(pd::areas());
  stats::CategoricalDistribution training = from_counts(pd::formal_training());
  MultiSelect informal{pd::informal_training()};
  stats::CategoricalDistribution roles = from_counts(pd::dev_roles());
  MultiSelect fp_languages{pd::fp_languages()};
  MultiSelect arb_prec_languages{pd::arb_prec_languages()};
  stats::CategoricalDistribution contributed =
      from_counts(pd::contributed_codebase_sizes());
  stats::CategoricalDistribution contributed_extent =
      from_counts(pd::contributed_fp_extent());
  stats::CategoricalDistribution involved =
      from_counts(pd::involved_codebase_sizes());
  stats::CategoricalDistribution involved_extent =
      from_counts(pd::involved_fp_extent());
};

}  // namespace

survey::BackgroundProfile sample_background(stats::Xoshiro256pp& g) {
  static const BackgroundTables t;
  survey::BackgroundProfile b;
  b.position = t.positions.sample(g);
  b.area = t.areas.sample(g);
  b.formal_training = t.training.sample(g);
  b.informal_training = t.informal.sample(g);
  b.dev_role = t.roles.sample(g);
  b.fp_languages = t.fp_languages.sample(g);
  b.arb_prec_languages = t.arb_prec_languages.sample(g);
  b.contributed_size = t.contributed.sample(g);
  b.contributed_extent = t.contributed_extent.sample(g);
  b.involved_size = t.involved.sample(g);
  b.involved_extent = t.involved_extent.sample(g);
  return b;
}

}  // namespace fpq::respondent
