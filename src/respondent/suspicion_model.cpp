#include "respondent/suspicion_model.hpp"

#include "paperdata/paperdata.hpp"
#include "stats/likert.hpp"

namespace fpq::respondent {

namespace {

using Panel = std::array<stats::LikertDistribution, quiz::kSuspicionItemCount>;

// One cohort's Figure 22 panel as five ready-to-sample distributions.
Panel build_panel(Cohort cohort) {
  const auto targets = fpq::paperdata::suspicion_targets();
  Panel panel;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto& pct = cohort == Cohort::kMain ? targets[c].percent_main
                                              : targets[c].percent_students;
    std::array<double, stats::kLikertLevels> weights{};
    for (std::size_t i = 0; i < stats::kLikertLevels; ++i) {
      weights[i] = pct[i];
    }
    panel[c] = stats::LikertDistribution(weights);
  }
  return panel;
}

}  // namespace

std::array<int, quiz::kSuspicionItemCount> sample_suspicion(
    Cohort cohort, stats::Xoshiro256pp& g) {
  static const Panel main_panel = build_panel(Cohort::kMain);
  static const Panel student_panel = build_panel(Cohort::kStudents);
  const Panel& panel = cohort == Cohort::kMain ? main_panel : student_panel;
  std::array<int, quiz::kSuspicionItemCount> out{};
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    out[c] = panel[c].sample(g);
  }
  return out;
}

}  // namespace fpq::respondent
