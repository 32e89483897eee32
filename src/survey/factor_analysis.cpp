// Thin wrappers over FactorLevelAccumulator (accumulators.hpp): each entry
// point folds the records into one accumulator and finishes it.
#include "survey/factor_analysis.hpp"

#include <algorithm>

#include "survey/accumulators.hpp"

namespace fpq::survey {

namespace {

std::vector<FactorLevelResult> run_serial(
    std::span<const SurveyRecord> records, FactorLevelAccumulator acc) {
  for (const auto& record : records) acc.add(record);
  return acc.finish();
}

}  // namespace

std::vector<FactorLevelResult> by_contributed_size(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key) {
  return run_serial(
      records, FactorLevelAccumulator::by_contributed_size(core_key, opt_key));
}

std::vector<FactorLevelResult> by_area_group(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key) {
  return run_serial(records,
                    FactorLevelAccumulator::by_area_group(core_key, opt_key));
}

std::vector<FactorLevelResult> by_role(std::span<const SurveyRecord> records,
                                       const CoreKey& core_key,
                                       const OptKey& opt_key) {
  return run_serial(records,
                    FactorLevelAccumulator::by_role(core_key, opt_key));
}

std::vector<FactorLevelResult> by_formal_training(
    std::span<const SurveyRecord> records, const CoreKey& core_key,
    const OptKey& opt_key) {
  return run_serial(
      records, FactorLevelAccumulator::by_formal_training(core_key, opt_key));
}

double core_correct_spread(std::span<const FactorLevelResult> levels) {
  double lo = 1e9, hi = -1e9;
  for (const auto& level : levels) {
    if (level.n == 0) continue;
    lo = std::min(lo, level.core.correct);
    hi = std::max(hi, level.core.correct);
  }
  return hi >= lo ? hi - lo : 0.0;
}

}  // namespace fpq::survey
