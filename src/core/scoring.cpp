#include "core/scoring.hpp"

namespace fpq::quiz {

namespace {

template <std::size_t N>
QuizTally score(const std::array<Answer, N>& answers,
                const std::array<Truth, N>& key) noexcept {
  std::array<std::size_t, kGradeCount> slots{};
  add_grades(slots, answers, key);
  return {slots[0], slots[1], slots[2], slots[3]};
}

}  // namespace

QuizTally score_core(
    const CoreSheet& sheet,
    const std::array<Truth, kCoreQuestionCount>& key) noexcept {
  return score(sheet.answers, key);
}

QuizTally score_opt_tf(
    const OptSheet& sheet,
    const std::array<Truth, kOptTrueFalseCount>& key) noexcept {
  return score(sheet.tf_answers, key);
}

}  // namespace fpq::quiz
