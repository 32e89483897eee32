#include <gtest/gtest.h>

#include "respondent/population.hpp"

namespace rs = fpq::respondent;

namespace {

TEST(Population, GeneratesRequestedSizes) {
  const auto main_cohort = rs::generate_main_cohort(1);
  EXPECT_EQ(main_cohort.size(), 199u);
  const auto students = rs::generate_student_cohort(1);
  EXPECT_EQ(students.size(), 52u);
}

TEST(Population, RespondentIdsSequential) {
  const auto cohort = rs::generate_main_cohort(2, 10);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    EXPECT_EQ(cohort[i].respondent_id, i + 1);
  }
}

TEST(Population, DeterministicUnderSeed) {
  const auto a = rs::generate_main_cohort(42, 50);
  const auto b = rs::generate_main_cohort(42, 50);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].background.area, b[i].background.area);
    EXPECT_EQ(a[i].core.answers, b[i].core.answers);
    EXPECT_EQ(a[i].opt.level_choice, b[i].opt.level_choice);
    EXPECT_EQ(a[i].suspicion, b[i].suspicion);
  }
}

TEST(Population, DifferentSeedsDiffer) {
  const auto a = rs::generate_main_cohort(1, 50);
  const auto b = rs::generate_main_cohort(2, 50);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].core.answers == b[i].core.answers) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Population, SuspicionLevelsInRange) {
  const auto cohort = rs::generate_main_cohort(3);
  for (const auto& r : cohort) {
    for (int level : r.suspicion) {
      EXPECT_GE(level, 1);
      EXPECT_LE(level, 5);
    }
  }
  const auto students = rs::generate_student_cohort(3);
  for (const auto& s : students) {
    for (int level : s.suspicion) {
      EXPECT_GE(level, 1);
      EXPECT_LE(level, 5);
    }
  }
}

TEST(Population, BackgroundIndicesInRange) {
  const auto cohort = rs::generate_main_cohort(4);
  for (const auto& r : cohort) {
    EXPECT_LT(r.background.position, 10u);
    EXPECT_LT(r.background.area, 19u);
    EXPECT_LT(r.background.formal_training, 5u);
    EXPECT_LT(r.background.dev_role, 5u);
    EXPECT_LT(r.background.contributed_size, 7u);
    EXPECT_LT(r.background.involved_size, 7u);
  }
}

// -- CohortGenerator: streaming, shard-addressable generation --------------

// Compares every field of two records, background lists included.
void expect_same_record(const fpq::survey::SurveyRecord& a,
                        const fpq::survey::SurveyRecord& b) {
  EXPECT_EQ(a.respondent_id, b.respondent_id);
  EXPECT_EQ(a.background.position, b.background.position);
  EXPECT_EQ(a.background.area, b.background.area);
  EXPECT_EQ(a.background.formal_training, b.background.formal_training);
  EXPECT_EQ(a.background.informal_training, b.background.informal_training);
  EXPECT_EQ(a.background.dev_role, b.background.dev_role);
  EXPECT_EQ(a.background.fp_languages, b.background.fp_languages);
  EXPECT_EQ(a.background.arb_prec_languages,
            b.background.arb_prec_languages);
  EXPECT_EQ(a.background.contributed_size, b.background.contributed_size);
  EXPECT_EQ(a.background.contributed_extent,
            b.background.contributed_extent);
  EXPECT_EQ(a.background.involved_size, b.background.involved_size);
  EXPECT_EQ(a.background.involved_extent, b.background.involved_extent);
  EXPECT_EQ(a.core.answers, b.core.answers);
  EXPECT_EQ(a.opt.tf_answers, b.opt.tf_answers);
  EXPECT_EQ(a.opt.level_choice, b.opt.level_choice);
  EXPECT_EQ(a.suspicion, b.suspicion);
}

TEST(CohortGenerator, StreamsTheExactLegacyCohort) {
  const auto cohort = rs::generate_main_cohort(11, 60);
  rs::CohortGenerator gen(11);
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    EXPECT_EQ(gen.position(), i);
    SCOPED_TRACE(i);
    expect_same_record(gen.next(), cohort[i]);
  }
}

TEST(CohortGenerator, RecordByIndexMatchesSequentialGeneration) {
  const auto cohort = rs::generate_main_cohort(11, 60);
  rs::CohortGenerator gen(11);
  // Out-of-order access, including backwards seeks.
  for (const std::size_t i : {40u, 3u, 59u, 3u, 0u, 17u}) {
    const auto r = gen.record(i);
    EXPECT_EQ(r.respondent_id, cohort[i].respondent_id);
    EXPECT_EQ(r.core.answers, cohort[i].core.answers) << "index " << i;
    EXPECT_EQ(r.suspicion, cohort[i].suspicion) << "index " << i;
    EXPECT_EQ(gen.position(), i + 1);
  }
}

TEST(CohortGenerator, SeekIsANoOpAtTheCurrentPosition) {
  rs::CohortGenerator a(5), b(5);
  a.next();
  a.next();
  a.seek(2);  // already there
  b.next();
  b.next();
  EXPECT_EQ(a.next().core.answers, b.next().core.answers);
}

TEST(CohortGenerator, ShardsReassembleTheFullCohort) {
  // Independent generators seeked to shard starts must reproduce the
  // sequential stream — the property the sharded streaming folds rely on.
  const auto cohort = rs::generate_main_cohort(13, 50);
  for (const std::size_t begin : {0u, 1u, 24u, 49u}) {
    rs::CohortGenerator gen(13);
    gen.seek(begin);
    for (std::size_t i = begin; i < cohort.size(); ++i) {
      EXPECT_EQ(gen.next().core.answers, cohort[i].core.answers)
          << "shard start " << begin << ", index " << i;
    }
  }
}

TEST(StudentCohortGenerator, StreamsTheExactLegacyCohort) {
  const auto students = rs::generate_student_cohort(21, 30);
  rs::StudentCohortGenerator gen(21);
  for (std::size_t i = 0; i < students.size(); ++i) {
    const auto r = gen.next();
    EXPECT_EQ(r.respondent_id, students[i].respondent_id);
    EXPECT_EQ(r.suspicion, students[i].suspicion);
  }
  // Shard-addressable too.
  EXPECT_EQ(gen.record(7).suspicion, students[7].suspicion);
}

}  // namespace
