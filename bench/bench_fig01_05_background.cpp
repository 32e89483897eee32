// Figures 1-5: participant background tables — positions, areas, formal
// and informal training, development roles. Regenerates each table by
// streaming the synthetic cohort through the survey accumulators (no
// record vector) and compares row counts against the paper.

#include <cmath>

#include "bench_common.hpp"
#include "paperdata/paperdata.hpp"
#include "report/table.hpp"
#include "survey/accumulators.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace rp = fpq::report;

namespace {

constexpr std::size_t kN = 199;

// Tolerance for one multinomial cell at n=199: ~2.5 sigma.
double cell_tolerance(double expected_n) {
  const double p = expected_n / 199.0;
  return 2.5 * std::sqrt(199.0 * p * (1.0 - p)) + 1.0;
}

void add_rows(std::vector<rp::ComparisonRow>& rows, const char* figure,
              std::span<const pd::CategoryCount> paper,
              const std::vector<sv::TableRow>& measured) {
  for (std::size_t i = 0; i < paper.size(); ++i) {
    rows.push_back({std::string(figure) + ": " + std::string(paper[i].label),
                    static_cast<double>(paper[i].n),
                    static_cast<double>(measured[i].n),
                    cell_tolerance(static_cast<double>(paper[i].n))});
  }
}

std::vector<sv::TableRow> stream_frequency(
    std::span<const pd::CategoryCount> table, sv::FieldSelector selector) {
  return fpq::bench::stream_main_cohort(kN, [&] {
           return sv::FrequencyAccumulator(table, selector);
         })
      .finish();
}

}  // namespace

int main() {
  std::vector<rp::ComparisonRow> rows;

  add_rows(rows, "Fig1 position", pd::positions(),
           stream_frequency(pd::positions(), [](const sv::SurveyRecord& r) {
             return r.background.position;
           }));
  add_rows(rows, "Fig2 area", pd::areas(),
           stream_frequency(pd::areas(), [](const sv::SurveyRecord& r) {
             return r.background.area;
           }));
  add_rows(rows, "Fig3 training", pd::formal_training(),
           stream_frequency(pd::formal_training(),
                            [](const sv::SurveyRecord& r) {
                              return r.background.formal_training;
                            }));
  add_rows(rows, "Fig4 informal", pd::informal_training(),
           fpq::bench::stream_main_cohort(kN, [] {
             return sv::MultiSelectAccumulator(
                 pd::informal_training(),
                 [](const sv::SurveyRecord& r) {
                   return r.background.informal_training;
                 });
           }).finish());
  add_rows(rows, "Fig5 role", pd::dev_roles(),
           stream_frequency(pd::dev_roles(), [](const sv::SurveyRecord& r) {
             return r.background.dev_role;
           }));

  return fpq::bench::finish(
      "Figures 1-5: participant background (counts, n=199)", rows, 0);
}
