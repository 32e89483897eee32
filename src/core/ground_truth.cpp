#include "core/ground_truth.hpp"

namespace fpq::quiz {

AnswerKey derive_answer_key(const Backend& backend) {
  AnswerKey key;
  key.backend_name = backend.name;
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    key.core[i] =
        demonstrate_core(static_cast<CoreQuestionId>(i), backend);
  }
  for (std::size_t i = 0; i < kOptQuestionCount; ++i) {
    key.opt[i] = demonstrate_opt(static_cast<OptQuestionId>(i));
  }
  key.opt_level_choice = kOptLevelCorrectChoice;
  return key;
}

std::array<Truth, kCoreQuestionCount> standard_core_truths() noexcept {
  std::array<Truth, kCoreQuestionCount> out{};
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    out[i] = core_question(static_cast<CoreQuestionId>(i)).standard_truth;
  }
  return out;
}

std::array<Truth, kOptTrueFalseCount> standard_opt_truths() noexcept {
  // The T/F optimization questions in order: MADD, Flush to Zero,
  // Fast-math (Standard-compliant Level is multiple choice).
  return {opt_question(OptQuestionId::kMadd).standard_truth,
          opt_question(OptQuestionId::kFlushToZero).standard_truth,
          opt_question(OptQuestionId::kFastMath).standard_truth};
}

bool key_matches_standard(const AnswerKey& key, std::string* mismatch) {
  const auto declared = standard_core_truths();
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    if (key.core[i].truth != declared[i]) {
      if (mismatch != nullptr) {
        *mismatch = core_question_label(static_cast<CoreQuestionId>(i));
      }
      return false;
    }
  }
  for (std::size_t i = 0; i < kOptQuestionCount; ++i) {
    const auto& q = opt_question(static_cast<OptQuestionId>(i));
    if (q.is_true_false && key.opt[i].truth != q.standard_truth) {
      if (mismatch != nullptr) *mismatch = opt_question_label(q.id);
      return false;
    }
  }
  if (key.opt_level_choice != kOptLevelCorrectChoice) {
    if (mismatch != nullptr) *mismatch = "Standard-compliant Level";
    return false;
  }
  return true;
}

std::string render_answer_key(const AnswerKey& key) {
  std::string out = "answer key as executed on backend: " +
                    key.backend_name + "\n\n";
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    const auto& q = core_question(static_cast<CoreQuestionId>(i));
    out += core_question_label(q.id) + "\n";
    out += "  code:      " + std::string(q.snippet) + "\n";
    out += "  assertion: " + std::string(q.assertion) + "\n";
    out += "  answer:    ";
    out += key.core[i].truth == Truth::kTrue ? "TRUE" : "FALSE";
    out += "\n  evidence:  " + key.core[i].witness + "\n\n";
  }
  for (std::size_t i = 0; i < kOptQuestionCount; ++i) {
    const auto& q = opt_question(static_cast<OptQuestionId>(i));
    out += opt_question_label(q.id) + "\n";
    out += "  prompt:    " + std::string(q.prompt) + "\n";
    out += "  answer:    ";
    if (q.is_true_false) {
      out += key.opt[i].truth == Truth::kTrue ? "TRUE" : "FALSE";
    } else {
      out += kOptLevelChoices[key.opt_level_choice];
    }
    out += "\n  evidence:  " + key.opt[i].witness + "\n\n";
  }
  return out;
}

}  // namespace fpq::quiz
