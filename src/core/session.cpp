#include "core/session.hpp"

namespace fpq::quiz {

QuizSession::QuizSession(const Backend& backend)
    : key_(derive_answer_key(backend)) {}

namespace {

std::array<Truth, kCoreQuestionCount> core_truths(const AnswerKey& key) {
  std::array<Truth, kCoreQuestionCount> out{};
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    out[i] = key.core[i].truth;
  }
  return out;
}

std::array<Truth, kOptTrueFalseCount> opt_truths(const AnswerKey& key) {
  // T/F questions are MADD (0), Flush to Zero (1), Fast-math (3).
  return {key.opt[0].truth, key.opt[1].truth, key.opt[3].truth};
}

}  // namespace

SessionReport QuizSession::grade(const CoreSheet& core,
                                 const OptSheet& opt) const {
  SessionReport r;
  r.core = score_core(core, core_truths(key_));
  r.opt_tf = score_opt_tf(opt, opt_truths(key_));
  r.level_grade = grade_level_choice(opt.level_choice);
  r.core_score = r.core.correct;
  r.core_vs_chance = static_cast<double>(r.core.correct) - kCoreChanceScore;
  return r;
}

CoreSheet QuizSession::perfect_core_sheet() const {
  CoreSheet sheet;
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    sheet.answers[i] = to_answer(key_.core[i].truth);
  }
  return sheet;
}

OptSheet QuizSession::perfect_opt_sheet() const {
  OptSheet sheet;
  const auto truths = opt_truths(key_);
  for (std::size_t i = 0; i < kOptTrueFalseCount; ++i) {
    sheet.tf_answers[i] = to_answer(truths[i]);
  }
  sheet.level_choice = key_.opt_level_choice;
  return sheet;
}

std::string QuizSession::render_quiz_text() const {
  std::string out =
      "Floating point quiz (answer True / False / Don't Know)\n\n";
  int n = 1;
  const auto number = [&] {
    out += 'Q';
    out += std::to_string(n++);
    out += ".\n";
  };
  for (const auto& q : core_questions()) {
    number();
    out += "    ";
    out += q.snippet;
    out += "\n  Claim: ";
    out += q.assertion;
    out += "\n\n";
  }
  for (const auto& q : opt_questions()) {
    number();
    out += "  ";
    out += q.prompt;
    out += '\n';
    if (!q.is_true_false) {
      out += "  Options:";
      for (std::size_t c = 0; c < kOptLevelChoiceCount; ++c) {
        out += ' ';
        out += kOptLevelChoices[c];
      }
      out += " / Don't Know\n";
    }
    out += '\n';
  }
  return out;
}

std::string QuizSession::render_report(const CoreSheet& core,
                                       const OptSheet& opt) const {
  const SessionReport r = grade(core, opt);
  std::string out = "quiz report (key from backend: " + key_.backend_name +
                    ")\n\n";
  const auto truths = core_truths(key_);
  for (std::size_t i = 0; i < kCoreQuestionCount; ++i) {
    const auto id = static_cast<CoreQuestionId>(i);
    const Grade g = grade_answer(core.answers[i], truths[i]);
    out += "  " + core_question_label(id) + ": ";
    out += answer_label(core.answers[i]);
    switch (g) {
      case Grade::kCorrect:
        out += " — correct";
        break;
      case Grade::kIncorrect:
        out += " — INCORRECT (";
        out += truths[i] == Truth::kTrue ? "True" : "False";
        out += "): " + key_.core[i].witness;
        break;
      case Grade::kDontKnow:
      case Grade::kUnanswered:
        out += " — answer: ";
        out += truths[i] == Truth::kTrue ? "True" : "False";
        break;
    }
    out += '\n';
  }
  out += "\n  core score: " + std::to_string(r.core.correct) + "/" +
         std::to_string(kCoreQuestionCount) + " (chance would be " +
         std::to_string(kCoreChanceScore).substr(0, 3) + ")\n";
  out += "  optimization T/F score: " + std::to_string(r.opt_tf.correct) +
         "/" + std::to_string(kOptTrueFalseCount) + "\n";
  out += "  standard-compliant level: ";
  switch (r.level_grade) {
    case Grade::kCorrect:
      out += "correct (-O2)\n";
      break;
    case Grade::kIncorrect:
      out += "incorrect (answer: -O2)\n";
      break;
    default:
      out += "not answered (answer: -O2)\n";
      break;
  }
  return out;
}

}  // namespace fpq::quiz
