// fpq::stats — 5-point Likert scale utilities.
//
// The suspicion quiz (§II-D of the paper) asks for suspicion on a 5-point
// Likert scale per exception condition; Figure 22 plots, for each
// condition, the percentage of respondents reporting each level. This
// module provides the distribution type, sampling, and the summary
// quantities the reproduction compares against the paper.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "stats/prng.hpp"

namespace fpq::stats {

/// Number of points on the scale (levels are 1..5).
inline constexpr std::size_t kLikertLevels = 5;

/// A distribution over Likert levels 1..5, stored as proportions that sum
/// to 1. index 0 <-> level 1.
class LikertDistribution {
 public:
  /// Uniform distribution.
  LikertDistribution() noexcept;

  /// From proportions (any non-negative weights; normalized on entry).
  explicit LikertDistribution(
      const std::array<double, kLikertLevels>& weights) noexcept;

  /// From observed counts of levels 1..5.
  static LikertDistribution from_counts(
      const std::array<std::size_t, kLikertLevels>& counts) noexcept;

  /// Proportion reporting the given level (1..5).
  double proportion(int level) const noexcept;

  /// Percentage (0..100) reporting the given level (1..5).
  double percent(int level) const noexcept { return 100.0 * proportion(level); }

  /// Expected level in [1, 5].
  double mean_level() const noexcept;

  /// Proportion reporting strictly less than the maximum level. The paper
  /// highlights that ~1/3 of respondents reported less-than-maximum
  /// suspicion for Invalid (NaN) results.
  double proportion_below_max() const noexcept;

  /// Draws a level in 1..5.
  int sample(Xoshiro256pp& g) const noexcept;

  /// Total-variation distance to another Likert distribution, in [0, 1].
  double distance(const LikertDistribution& other) const noexcept;

  std::span<const double> proportions() const noexcept { return probs_; }

 private:
  // Fills cumulative_ from probs_ by the running sum sample() draws
  // against.
  void accumulate() noexcept;

  std::array<double, kLikertLevels> probs_;
  std::array<double, kLikertLevels> cumulative_;
};

/// Accumulates observed Likert responses (levels 1..5) into counts.
class LikertAccumulator {
 public:
  LikertAccumulator() noexcept : counts_{} {}

  /// Levels outside 1..5 are ignored and counted as dropped.
  void add(int level) noexcept {
    if (level < 1 || level > static_cast<int>(kLikertLevels)) {
      ++dropped_;
      return;
    }
    ++counts_[static_cast<std::size_t>(level - 1)];
    ++total_;
  }

  /// Absorbs another accumulator's counts (including dropped). Integer
  /// counts make the merge order-insensitive: any merge tree equals the
  /// serial add() fold.
  void merge(const LikertAccumulator& other) noexcept;

  std::size_t total() const noexcept { return total_; }
  std::size_t dropped() const noexcept { return dropped_; }
  std::size_t count(int level) const noexcept;

  /// Snapshot as a normalized distribution; requires total() > 0.
  LikertDistribution distribution() const noexcept;

 private:
  std::array<std::size_t, kLikertLevels> counts_;
  std::size_t total_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace fpq::stats
