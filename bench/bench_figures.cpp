// Figures 1-22: folds the canonical cohorts (seed kCohortSeed, n = 199 and
// 52) once, prints every figure's charts and paper-vs-measured claims
// from the claim table (survey/figures.hpp), and exits 1 when any claim
// deviates, 2 on any argument. Its output is the generated section of
// EXPERIMENTS.md; a ctest fails when the two differ.

#include <cstdio>

#include "bench_common.hpp"
#include "paperdata/paperdata.hpp"
#include "survey/figures.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace rp = fpq::report;

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fputs("usage: bench_figures (takes no arguments)\n", stderr);
    return 2;
  }
  sv::FigureAccumulator acc;
  fpq::respondent::CohortGenerator main_cohort(fpq::bench::kCohortSeed);
  for (std::size_t i = 0; i < pd::kMainCohortSize; ++i) {
    acc.add(main_cohort.next());
  }
  fpq::respondent::StudentCohortGenerator students(fpq::bench::kCohortSeed);
  for (std::size_t i = 0; i < pd::kStudentCohortSize; ++i) {
    acc.add(students.next());
  }

  std::size_t ok = 0, deviates = 0, untestable = 0;
  for (const auto& block : acc.finish()) {
    std::fputs(block.charts.c_str(), stdout);
    std::fputs(
        rp::render_comparison(block.title, block.claims, block.decimals)
            .c_str(),
        stdout);
    const auto s = rp::summarize_comparison(block.claims);
    ok += s.within_tolerance;
    untestable += s.untestable;
    deviates += s.total - s.within_tolerance - s.untestable;
  }
  std::printf(
      "claims: %zu OK, %zu DEVIATES, %zu untestable (seed %llu, tolerance "
      "%.1f sigma, minimum sample %zu)\n",
      ok, deviates, untestable,
      static_cast<unsigned long long>(fpq::bench::kCohortSeed),
      sv::kClaimSigmas, sv::kMinSampleN);
  return deviates == 0 ? 0 : 1;
}
