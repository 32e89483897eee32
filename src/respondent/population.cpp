#include "respondent/population.hpp"

#include "respondent/background_model.hpp"
#include "respondent/calibration.hpp"
#include "respondent/suspicion_model.hpp"

namespace fpq::respondent {

namespace {

// The calibrated model is a function of the published marginals and its
// own internal calibration seed only — NOT of any cohort's seed — so
// different cohorts are draws from one fixed model. Shared by every
// generator and wrapper.
const CalibratedQuizModel& calibrated_model() {
  static const CalibratedQuizModel model =
      CalibratedQuizModel::fit(0xCA11B8A7EDULL);
  return model;
}

}  // namespace

CohortGenerator::CohortGenerator(std::uint64_t seed) noexcept
    : seed_(seed), root_(seed) {}

void CohortGenerator::seek(std::size_t index) noexcept {
  if (index < pos_) {
    root_ = stats::Xoshiro256pp(seed_);
    pos_ = 0;
  }
  // split(i) consumes exactly two root draws; replay them without paying
  // for the skipped respondents' model sampling.
  while (pos_ < index) {
    root_();
    root_();
    ++pos_;
  }
}

survey::SurveyRecord CohortGenerator::next() {
  auto g = root_.split(pos_);
  survey::SurveyRecord r;
  r.respondent_id = pos_ + 1;
  r.background = sample_background(g);
  const Ability ability = derive_ability(r.background, g);
  const CalibratedQuizModel& model = calibrated_model();
  r.core = model.sample_core(ability, g);
  r.opt = model.sample_opt(ability, g);
  r.suspicion = sample_suspicion(Cohort::kMain, g);
  ++pos_;
  return r;
}

survey::SurveyRecord CohortGenerator::record(std::size_t index) {
  seek(index);
  return next();
}

StudentCohortGenerator::StudentCohortGenerator(std::uint64_t seed) noexcept
    : seed_(seed), root_(seed) {}

void StudentCohortGenerator::seek(std::size_t index) noexcept {
  if (index < pos_) {
    root_ = stats::Xoshiro256pp(seed_);
    pos_ = 0;
  }
  while (pos_ < index) {
    root_();
    root_();
    ++pos_;
  }
}

survey::StudentRecord StudentCohortGenerator::next() {
  auto g = root_.split(pos_);
  survey::StudentRecord r;
  r.respondent_id = pos_ + 1;
  r.suspicion = sample_suspicion(Cohort::kStudents, g);
  ++pos_;
  return r;
}

survey::StudentRecord StudentCohortGenerator::record(std::size_t index) {
  seek(index);
  return next();
}

std::vector<survey::SurveyRecord> generate_main_cohort(std::uint64_t seed,
                                                       std::size_t n) {
  CohortGenerator gen(seed);
  std::vector<survey::SurveyRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(gen.next());
  return records;
}

std::vector<survey::StudentRecord> generate_student_cohort(
    std::uint64_t seed, std::size_t n) {
  StudentCohortGenerator gen(seed);
  std::vector<survey::StudentRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(gen.next());
  return records;
}

}  // namespace fpq::respondent
