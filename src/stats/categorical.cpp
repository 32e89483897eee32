#include "stats/categorical.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fpq::stats {

CategoricalDistribution::CategoricalDistribution(
    std::span<const double> weights) {
  assert(!weights.empty());
  double sum = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    sum += w;
  }
  assert(sum > 0.0);
  probs_.reserve(weights.size());
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    const double p = w / sum;
    probs_.push_back(p);
    acc += p;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against accumulated rounding
}

std::size_t CategoricalDistribution::sample(Xoshiro256pp& g) const noexcept {
  // The entries not above u form a prefix of the cumulative table (it
  // never decreases before its last entry, which is 1 > u), so counting
  // them with upper_bound's own predicate finds upper_bound's index
  // without branches.
  const double u = uniform01(g);
  std::size_t idx = 0;
  for (const double c : cumulative_) idx += u < c ? 0 : 1;
  return std::min(idx, probs_.size() - 1);
}

FrequencyTable::FrequencyTable(std::size_t category_count)
    : counts_(category_count, 0) {
  assert(category_count > 0);
}

void FrequencyTable::add(std::size_t category) noexcept {
  if (category >= counts_.size()) {
    ++dropped_;
    return;
  }
  ++counts_[category];
  ++total_;
}

void FrequencyTable::add_all(std::span<const std::size_t> categories) noexcept {
  for (std::size_t c : categories) add(c);
}

std::size_t FrequencyTable::count(std::size_t category) const noexcept {
  return category < counts_.size() ? counts_[category] : 0;
}

double FrequencyTable::proportion(std::size_t category) const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(category)) / static_cast<double>(total_);
}

std::vector<double> FrequencyTable::proportions() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

FrequencyTable sample_frequency(const CategoricalDistribution& dist,
                                std::size_t n, Xoshiro256pp& g) {
  FrequencyTable table(dist.category_count());
  for (std::size_t i = 0; i < n; ++i) table.add(dist.sample(g));
  return table;
}

double total_variation_distance(std::span<const double> p,
                                std::span<const double> q) noexcept {
  assert(p.size() == q.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) acc += std::fabs(p[i] - q[i]);
  return 0.5 * acc;
}

}  // namespace fpq::stats
