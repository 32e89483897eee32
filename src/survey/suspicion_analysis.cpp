#include "survey/suspicion_analysis.hpp"

#include <cmath>

#include "core/question_bank.hpp"
#include "survey/accumulators.hpp"

namespace fpq::survey {

namespace {

template <typename Record>
SuspicionDistributions distributions_of(std::span<const Record> records) {
  SuspicionAccumulator acc;
  for (const auto& record : records) acc.add(record);
  return acc.finish();
}

}  // namespace

SuspicionDistributions suspicion_distributions(
    std::span<const SurveyRecord> records) {
  return distributions_of(records);
}

SuspicionDistributions suspicion_distributions(
    std::span<const StudentRecord> records) {
  return distributions_of(records);
}

SuspicionSummary summarize_suspicion(const SuspicionDistributions& dists) {
  SuspicionSummary s;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    s.mean_level[c] = dists[c].mean_level();
  }
  const auto invalid = static_cast<std::size_t>(quiz::SuspicionItemId::kInvalid);
  const auto overflow =
      static_cast<std::size_t>(quiz::SuspicionItemId::kOverflow);
  s.invalid_below_max = dists[invalid].proportion_below_max();

  bool invalid_highest = true;
  bool overflow_second = true;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    if (c == invalid) continue;
    if (s.mean_level[c] >= s.mean_level[invalid]) invalid_highest = false;
    if (c != overflow && s.mean_level[c] >= s.mean_level[overflow]) {
      overflow_second = false;
    }
  }
  s.expert_ordering_holds = invalid_highest && overflow_second;
  return s;
}

double distance_from_advice(const SuspicionSummary& summary) {
  double acc = 0.0;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto advised =
        quiz::suspicion_item(static_cast<quiz::SuspicionItemId>(c))
            .advised_level;
    acc += std::fabs(summary.mean_level[c] - advised);
  }
  return acc / static_cast<double>(quiz::kSuspicionItemCount);
}

}  // namespace fpq::survey
