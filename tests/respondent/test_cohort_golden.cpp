// Golden fingerprints of the synthetic cohorts.
//
// Every field of every record — all 11 background fields including the
// three multi-select lists, both answer sheets and the suspicion levels —
// is folded into one 64-bit fingerprint per (generator, seed, length).
// The constants were computed from the generator before its samplers were
// made table-driven; any change to a draw, its order, or the double
// arithmetic that turns draws into answers changes them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "respondent/population.hpp"

namespace rs = fpq::respondent;
namespace sv = fpq::survey;

namespace {

class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept {
    // splitmix64 finalizer over the running state: order-sensitive.
    std::uint64_t z = h_ + 0x9E3779B97F4A7C15ULL + v;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h_ = z ^ (z >> 31);
  }
  void add_list(const sv::IndexSet& list) noexcept {
    add(list.size());
    for (const std::size_t v : list) add(v);
  }
  template <typename Array>
  void add_levels(const Array& values) noexcept {
    for (const auto v : values) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0;
};

void fold(Fingerprint& fp, const sv::SurveyRecord& r) {
  fp.add(r.respondent_id);
  const sv::BackgroundProfile& b = r.background;
  fp.add(b.position);
  fp.add(b.area);
  fp.add(b.formal_training);
  fp.add_list(b.informal_training);
  fp.add(b.dev_role);
  fp.add_list(b.fp_languages);
  fp.add_list(b.arb_prec_languages);
  fp.add(b.contributed_size);
  fp.add(b.contributed_extent);
  fp.add(b.involved_size);
  fp.add(b.involved_extent);
  fp.add_levels(r.core.answers);
  fp.add_levels(r.opt.tf_answers);
  fp.add(r.opt.level_choice);
  fp.add_levels(r.suspicion);
}

std::uint64_t main_cohort_fingerprint(std::uint64_t seed, std::size_t n) {
  rs::CohortGenerator gen(seed);
  Fingerprint fp;
  for (std::size_t i = 0; i < n; ++i) fold(fp, gen.next());
  return fp.value();
}

std::uint64_t student_cohort_fingerprint(std::uint64_t seed, std::size_t n) {
  rs::StudentCohortGenerator gen(seed);
  Fingerprint fp;
  for (std::size_t i = 0; i < n; ++i) {
    const sv::StudentRecord r = gen.next();
    fp.add(r.respondent_id);
    fp.add_levels(r.suspicion);
  }
  return fp.value();
}

constexpr std::size_t kMainRecords = std::size_t{1} << 14;
constexpr std::size_t kStudentRecords = std::size_t{1} << 12;

TEST(CohortGolden, MainCohortSeed1) {
  EXPECT_EQ(main_cohort_fingerprint(1, kMainRecords),
            0x554B0D1E41002990ULL);
}

TEST(CohortGolden, MainCohortSeed7) {
  EXPECT_EQ(main_cohort_fingerprint(7, kMainRecords),
            0x39B612007D4883E7ULL);
}

TEST(CohortGolden, MainCohortSeedDeadBeef) {
  EXPECT_EQ(main_cohort_fingerprint(0xDEADBEEF, kMainRecords),
            0x72188375049F120EULL);
}

TEST(CohortGolden, StudentCohortSeed21) {
  EXPECT_EQ(student_cohort_fingerprint(21, kStudentRecords),
            0xE9F9795FF988ADD7ULL);
}

}  // namespace
