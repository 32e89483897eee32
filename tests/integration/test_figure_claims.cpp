// The reproduction claims, as tests: at every pinned seed, the synthetic
// 199-respondent main cohort and 52-respondent student cohort reproduce
// every claim of the table in survey/figures.hpp (the same table
// bench_figures prints). The tolerance rule and the family-wise
// false-failure rate it implies over these six seeds are stated there.
// The Reproduction (seed 0x1908) and SeedStability cases are per-figure
// views onto that table, so a failure names its figure; none has a
// tolerance of its own.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "paperdata/paperdata.hpp"
#include "respondent/population.hpp"
#include "survey/figures.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace rp = fpq::report;

namespace {

/// Selects the claims whose block title and quantity start with these.
struct View {
  std::string_view block;
  std::string_view quantity = {};
};

/// Expects that no claim a view selects deviates at `seed`, and that the
/// views select at least one.
void expect_claims_hold(std::uint64_t seed,
                        std::initializer_list<View> views) {
  sv::FigureAccumulator acc;
  fpq::respondent::CohortGenerator main_cohort(seed);
  for (std::size_t i = 0; i < pd::kMainCohortSize; ++i) {
    acc.add(main_cohort.next());
  }
  fpq::respondent::StudentCohortGenerator students(seed);
  for (std::size_t i = 0; i < pd::kStudentCohortSize; ++i) {
    acc.add(students.next());
  }
  std::size_t checked = 0;
  for (const auto& block : acc.finish()) {
    for (const auto& claim : block.claims) {
      bool selected = false;
      for (const View& v : views) {
        selected = selected || (block.title.starts_with(v.block) &&
                                claim.quantity.starts_with(v.quantity));
      }
      if (!selected) continue;
      ++checked;
      EXPECT_NE(rp::verdict(claim), rp::Verdict::kDeviates)
          << "seed " << seed << ", " << block.title << ": " << claim.quantity
          << " paper " << claim.paper << " measured " << claim.measured
          << " tolerance " << claim.tolerance;
    }
  }
  EXPECT_GT(checked, 0u) << "no claim selected at seed " << seed;
}

// Identity and Divide by Zero: answered incorrectly by most respondents.
void expect_majority_wrong_rows_hold(std::uint64_t seed) {
  expect_claims_hold(seed, {{"Figure 14:", "Identity "},
                            {"Figure 14:", "Divide by Zero "},
                            {"Figure 14:", "majority-wrong"}});
}

constexpr std::uint64_t kSeed = 0x1908;

class FigureClaims : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FigureClaims, NoClaimDeviates) {
  expect_claims_hold(GetParam(), {{""}});
}

INSTANTIATE_TEST_SUITE_P(PinnedSeeds, FigureClaims,
                         ::testing::Values(kSeed, 20180521ULL, 1ULL, 7ULL,
                                           1234ULL, 0xDEADBEEFULL));

TEST(Reproduction, BackgroundTablesWithinSamplingNoise) {
  expect_claims_hold(kSeed,
                     {{"Figures 1-5"}, {"Figures 6-7"}, {"Figures 8-11"}});
}
TEST(Reproduction, Figure12CoreAverages) {
  expect_claims_hold(kSeed, {{"Figure 12:", "core "}});
}
TEST(Reproduction, Figure12OptAverages) {
  expect_claims_hold(kSeed, {{"Figure 12:", "opt "}});
}
TEST(Reproduction, Figure13HistogramShape) {
  expect_claims_hold(kSeed, {{"Figure 13:"}});
}
TEST(Reproduction, Figure14PerQuestionRates) {
  expect_claims_hold(kSeed, {{"Figure 14:"}});
}
TEST(Reproduction, Figure14MajorityWrongQuestionsStayWrong) {
  expect_majority_wrong_rows_hold(kSeed);
}
TEST(Reproduction, Figure15DontKnowDominates) {
  expect_claims_hold(kSeed, {{"Figure 15:"}});
}
TEST(Reproduction, Figure16SizeTrendMonotoneAndSpread) {
  expect_claims_hold(kSeed, {{"Figures 16-19:", "Fig16 "}});
}
TEST(Reproduction, Figure17AreaEffects) {
  expect_claims_hold(kSeed, {{"Figures 16-19:", "Fig17 "}});
}
TEST(Reproduction, Figure19TrainingEffectIsSmall) {
  expect_claims_hold(kSeed, {{"Figures 16-19:", "Fig19 "}});
}
TEST(Reproduction, Figures20And21OptEffects) {
  expect_claims_hold(kSeed, {{"Figures 20-21:"}});
}
TEST(Reproduction, Figure22SuspicionBothCohorts) {
  expect_claims_hold(kSeed, {{"Figure 22:"}});
}

class SeedStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStability, Figure12HoldsForEverySeed) {
  expect_claims_hold(GetParam(), {{"Figure 12:"}});
}
TEST_P(SeedStability, MajorityWrongRowsHoldForEverySeed) {
  expect_majority_wrong_rows_hold(GetParam());
}
TEST_P(SeedStability, SuspicionOrderingHoldsForEverySeed) {
  expect_claims_hold(GetParam(), {{"Figure 22:", "22a ordering"},
                                  {"Figure 22:", "22b ordering"},
                                  {"Figure 22:", "22a Invalid below"},
                                  {"Figure 22:", "22b Invalid below"}});
}

INSTANTIATE_TEST_SUITE_P(FiveSeeds, SeedStability,
                         ::testing::Values(1ULL, 7ULL, 1234ULL, 0xDEADBEEFULL,
                                           20180521ULL));

}  // namespace
