// fpq::quiz — answer sheets and scoring.
//
// Scoring reproduces the paper's accounting exactly: per-quiz counts of
// correct / incorrect / don't-know / unanswered (Figure 12), with the
// Standard-compliant Level question excluded from the optimization-quiz
// T/F tally because it is multiple choice.
#pragma once

#include <array>
#include <cstddef>

#include "core/types.hpp"

namespace fpq::quiz {

/// A participant's core-quiz answer sheet, indexed by CoreQuestionId.
struct CoreSheet {
  std::array<Answer, kCoreQuestionCount> answers{
      // Default: everything unanswered.
  };
  CoreSheet() { answers.fill(Answer::kUnanswered); }

  Answer& operator[](CoreQuestionId id) {
    return answers[static_cast<std::size_t>(id)];
  }
  Answer operator[](CoreQuestionId id) const {
    return answers[static_cast<std::size_t>(id)];
  }
};

/// A participant's optimization-quiz answer sheet: the three T/F answers
/// (MADD, Flush to Zero, Fast-math, in that order) plus the
/// multiple-choice level answer.
struct OptSheet {
  std::array<Answer, kOptTrueFalseCount> tf_answers{};
  std::size_t level_choice = kOptLevelUnanswered;
  OptSheet() { tf_answers.fill(Answer::kUnanswered); }
};

/// How one answer grades against the truth. The enumerator values are
/// the tally slots the survey accumulators count into.
enum class Grade { kCorrect = 0, kIncorrect, kDontKnow, kUnanswered };
inline constexpr std::size_t kGradeCount = 4;

/// Grade of every (answer, truth) pair, indexed [answer][truth].
inline constexpr Grade kGradeTable[4][2] = {
    /* kTrue       */ {Grade::kCorrect, Grade::kIncorrect},
    /* kFalse      */ {Grade::kIncorrect, Grade::kCorrect},
    /* kDontKnow   */ {Grade::kDontKnow, Grade::kDontKnow},
    /* kUnanswered */ {Grade::kUnanswered, Grade::kUnanswered},
};

constexpr Grade grade_answer(Answer given, Truth truth) noexcept {
  const auto a = static_cast<std::size_t>(given);
  const auto t = static_cast<std::size_t>(truth);
  if (a < 4 && t < 2) return kGradeTable[a][t];
  // Values outside the enumerators: a T/F answer against no known truth
  // is incorrect; an unknown answer counts as unanswered.
  return a < 2 ? Grade::kIncorrect
               : a == 2 ? Grade::kDontKnow : Grade::kUnanswered;
}

/// Tally slot of an answer: static_cast<std::size_t>(grade_answer(...)).
constexpr std::size_t grade_slot(Answer given, Truth truth) noexcept {
  return static_cast<std::size_t>(grade_answer(given, truth));
}

/// Counts each answer of a sheet into its grade's slot (correct /
/// incorrect / dont_know / unanswered), one table lookup per answer.
template <std::size_t N>
constexpr void add_grades(std::array<std::size_t, kGradeCount>& slots,
                          const std::array<Answer, N>& answers,
                          const std::array<Truth, N>& key) noexcept {
  for (std::size_t i = 0; i < N; ++i) {
    ++slots[grade_slot(answers[i], key[i])];
  }
}

/// Counts over one quiz.
struct QuizTally {
  std::size_t correct = 0;
  std::size_t incorrect = 0;
  std::size_t dont_know = 0;
  std::size_t unanswered = 0;
  std::size_t total() const noexcept {
    return correct + incorrect + dont_know + unanswered;
  }
};

/// Scores the core sheet against a truth key.
QuizTally score_core(const CoreSheet& sheet,
                     const std::array<Truth, kCoreQuestionCount>& key)
    noexcept;

/// Scores the T/F part of the optimization sheet (3 questions).
QuizTally score_opt_tf(const OptSheet& sheet,
                       const std::array<Truth, kOptTrueFalseCount>& key)
    noexcept;

/// Grades the multiple-choice level question (correct / incorrect /
/// don't-know / unanswered; any index past the sentinels is unanswered).
constexpr Grade grade_level_choice(std::size_t choice) noexcept {
  if (choice == kOptLevelDontKnow) return Grade::kDontKnow;
  if (choice >= kOptLevelChoiceCount) return Grade::kUnanswered;
  return choice == kOptLevelCorrectChoice ? Grade::kCorrect
                                          : Grade::kIncorrect;
}

/// Expected score under uniform random T/F guessing (the paper's "chance"
/// lines in Figure 12).
inline constexpr double kCoreChanceScore = kCoreQuestionCount / 2.0;  // 7.5
inline constexpr double kOptChanceScore = kOptTrueFalseCount / 2.0;   // 1.5

}  // namespace fpq::quiz
