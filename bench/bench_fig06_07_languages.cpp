// Figures 6-7: floating point and arbitrary-precision language experience
// (multi-select membership tables), streamed through the survey
// accumulators — no record vector.

#include <cmath>

#include "bench_common.hpp"
#include "paperdata/paperdata.hpp"
#include "survey/accumulators.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace rp = fpq::report;

namespace {
constexpr std::size_t kN = 199;
}  // namespace

int main() {
  std::vector<rp::ComparisonRow> rows;

  const auto fp = fpq::bench::stream_main_cohort(kN, [] {
                    return sv::MultiSelectAccumulator(
                        pd::fp_languages(),
                        [](const sv::SurveyRecord& r) {
                          return r.background.fp_languages;
                        });
                  }).finish();
  for (std::size_t i = 0; i < pd::fp_languages().size(); ++i) {
    const auto& paper = pd::fp_languages()[i];
    const double p = static_cast<double>(paper.n) / 199.0;
    rows.push_back({"Fig6 " + std::string(paper.label),
                    static_cast<double>(paper.n),
                    static_cast<double>(fp[i].n),
                    2.5 * std::sqrt(199.0 * p * (1.0 - p)) + 1.0});
  }

  const auto arb = fpq::bench::stream_main_cohort(kN, [] {
                     return sv::MultiSelectAccumulator(
                         pd::arb_prec_languages(),
                         [](const sv::SurveyRecord& r) {
                           return r.background.arb_prec_languages;
                         });
                   }).finish();
  for (std::size_t i = 0; i < pd::arb_prec_languages().size(); ++i) {
    const auto& paper = pd::arb_prec_languages()[i];
    const double p = static_cast<double>(paper.n) / 199.0;
    rows.push_back({"Fig7 " + std::string(paper.label),
                    static_cast<double>(paper.n),
                    static_cast<double>(arb[i].n),
                    2.5 * std::sqrt(199.0 * p * (1.0 - p)) + 1.0});
  }

  return fpq::bench::finish(
      "Figures 6-7: language experience (counts, multi-select, n=199)",
      rows, 0);
}
