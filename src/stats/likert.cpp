#include "stats/likert.hpp"

#include <cassert>
#include <cmath>

namespace fpq::stats {

LikertDistribution::LikertDistribution() noexcept {
  probs_.fill(1.0 / static_cast<double>(kLikertLevels));
  accumulate();
}

void LikertDistribution::accumulate() noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < kLikertLevels; ++i) {
    acc += probs_[i];
    cumulative_[i] = acc;
  }
}

LikertDistribution::LikertDistribution(
    const std::array<double, kLikertLevels>& weights) noexcept {
  double sum = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    sum += w;
  }
  assert(sum > 0.0);
  for (std::size_t i = 0; i < kLikertLevels; ++i) probs_[i] = weights[i] / sum;
  accumulate();
}

LikertDistribution LikertDistribution::from_counts(
    const std::array<std::size_t, kLikertLevels>& counts) noexcept {
  std::array<double, kLikertLevels> weights{};
  for (std::size_t i = 0; i < kLikertLevels; ++i) {
    weights[i] = static_cast<double>(counts[i]);
  }
  return LikertDistribution{weights};
}

double LikertDistribution::proportion(int level) const noexcept {
  assert(level >= 1 && level <= static_cast<int>(kLikertLevels));
  return probs_[static_cast<std::size_t>(level - 1)];
}

double LikertDistribution::mean_level() const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < kLikertLevels; ++i) {
    acc += probs_[i] * static_cast<double>(i + 1);
  }
  return acc;
}

double LikertDistribution::proportion_below_max() const noexcept {
  return 1.0 - probs_[kLikertLevels - 1];
}

int LikertDistribution::sample(Xoshiro256pp& g) const noexcept {
  // The level is the first whose cumulative proportion exceeds u (the top
  // level when none of the lower four does). The running sum never
  // decreases, so that is one plus the count of lower levels whose
  // cumulative proportion u is not below.
  const double u = uniform01(g);
  int level = 1;
  for (std::size_t i = 0; i + 1 < kLikertLevels; ++i) {
    level += u < cumulative_[i] ? 0 : 1;
  }
  return level;
}

double LikertDistribution::distance(
    const LikertDistribution& other) const noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < kLikertLevels; ++i) {
    acc += std::fabs(probs_[i] - other.probs_[i]);
  }
  return 0.5 * acc;
}

void LikertAccumulator::merge(const LikertAccumulator& other) noexcept {
  for (std::size_t i = 0; i < kLikertLevels; ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
  dropped_ += other.dropped_;
}

std::size_t LikertAccumulator::count(int level) const noexcept {
  if (level < 1 || level > static_cast<int>(kLikertLevels)) return 0;
  return counts_[static_cast<std::size_t>(level - 1)];
}

LikertDistribution LikertAccumulator::distribution() const noexcept {
  assert(total_ > 0);
  return LikertDistribution::from_counts(counts_);
}

}  // namespace fpq::stats
