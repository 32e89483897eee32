// fpq::stats — categorical distributions and frequency tables.
//
// The survey's background factors (position, area, training, ...) are all
// categorical; the respondent model samples them from the paper's published
// marginals and the analysis pipeline recovers frequency tables from raw
// records. Both directions live here.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "stats/prng.hpp"

namespace fpq::stats {

/// Immutable categorical distribution over indices 0..k-1.
///
/// Construction normalizes arbitrary non-negative weights; sampling
/// counts the cumulative-table entries at or below the uniform draw (k is
/// small everywhere in fpqual, so the alias method would be
/// over-engineering).
class CategoricalDistribution {
 public:
  /// Requires at least one weight, all weights >= 0, and a positive sum.
  explicit CategoricalDistribution(std::span<const double> weights);

  std::size_t category_count() const noexcept { return probs_.size(); }

  /// Normalized probability of category i.
  double probability(std::size_t i) const noexcept { return probs_[i]; }

  std::span<const double> probabilities() const noexcept { return probs_; }

  /// Draws one category index.
  std::size_t sample(Xoshiro256pp& g) const noexcept;

 private:
  std::vector<double> probs_;
  std::vector<double> cumulative_;
};

/// Counts occurrences of each category index in [0, k).
/// Values outside the range are ignored (and reported via dropped()).
class FrequencyTable {
 public:
  explicit FrequencyTable(std::size_t category_count);

  void add(std::size_t category) noexcept;
  void add_all(std::span<const std::size_t> categories) noexcept;

  std::size_t category_count() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t category) const noexcept;
  std::size_t total() const noexcept { return total_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Proportion of total for one category (0 when empty).
  double proportion(std::size_t category) const noexcept;

  /// Proportions for all categories (empty table -> all zero).
  std::vector<double> proportions() const;

  std::span<const std::size_t> counts() const noexcept { return counts_; }

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t dropped_ = 0;
};

/// Draws `n` samples from `dist` and returns the resulting frequency table.
FrequencyTable sample_frequency(const CategoricalDistribution& dist,
                                std::size_t n, Xoshiro256pp& g);

/// Total-variation distance between two discrete distributions given as
/// probability vectors of equal length: 0.5 * sum |p_i - q_i|.
double total_variation_distance(std::span<const double> p,
                                std::span<const double> q) noexcept;

}  // namespace fpq::stats
