// fpq::quiz — the answer key, derived by execution.
//
// The standard answer key is computed by running every demonstration on an
// IEEE-compliant backend and cross-checked (by the test suite) against the
// question bank's declared truths and against every other IEEE backend.
#pragma once

#include <array>
#include <string>

#include "core/backend.hpp"
#include "core/question_bank.hpp"
#include "core/types.hpp"
#include "core/witness.hpp"

namespace fpq::quiz {

/// The full executed answer key for one backend.
struct AnswerKey {
  std::string backend_name;
  std::array<Demonstration, kCoreQuestionCount> core;
  std::array<Demonstration, kOptQuestionCount> opt;  ///< [2] is the level Q
  /// Correct choice index for Standard-compliant Level.
  std::size_t opt_level_choice = kOptLevelCorrectChoice;
};

/// Executes all demonstrations on the given backend.
AnswerKey derive_answer_key(const Backend& backend);

/// The declared standard truths (what an IEEE backend must reproduce).
std::array<Truth, kCoreQuestionCount> standard_core_truths() noexcept;
std::array<Truth, kOptTrueFalseCount> standard_opt_truths() noexcept;

/// True when the executed key matches the declared standard truths on
/// every question; `mismatch` (optional) receives the first differing
/// question's label.
bool key_matches_standard(const AnswerKey& key, std::string* mismatch);

/// Renders the key with witnesses, one block per question.
std::string render_answer_key(const AnswerKey& key);

}  // namespace fpq::quiz
