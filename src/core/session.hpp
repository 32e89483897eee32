// fpq::quiz — a complete quiz session: derive the key from a backend,
// grade answer sheets, render reports. This is the top of the core
// library's public API and what the examples drive.
#pragma once

#include <string>

#include "core/ground_truth.hpp"
#include "core/scoring.hpp"

namespace fpq::quiz {

/// Per-participant grading outcome across both graded quizzes.
struct SessionReport {
  QuizTally core;
  QuizTally opt_tf;
  Grade level_grade = Grade::kUnanswered;
  /// Convenience: core.correct as the paper's headline "score out of 15".
  std::size_t core_score = 0;
  /// Score relative to chance (positive = better than guessing).
  double core_vs_chance = 0.0;
};

class QuizSession {
 public:
  /// Derives the answer key by executing every demonstration on `backend`.
  explicit QuizSession(const Backend& backend);

  const AnswerKey& key() const noexcept { return key_; }

  /// Grades one participant.
  SessionReport grade(const CoreSheet& core, const OptSheet& opt) const;

  /// The perfect answer sheets implied by the key (used by tests and by
  /// the respondent model's "expert" anchor).
  CoreSheet perfect_core_sheet() const;
  OptSheet perfect_opt_sheet() const;

  /// Renders the full quiz as text for a human to take (prompts only,
  /// no answers — survey order, no labels).
  std::string render_quiz_text() const;

  /// Renders one participant's report with per-question feedback.
  std::string render_report(const CoreSheet& core, const OptSheet& opt)
      const;

 private:
  AnswerKey key_;
};

}  // namespace fpq::quiz
