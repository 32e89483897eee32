// quickstart — take the floating point quiz against your own machine.
//
// Derives the answer key by EXECUTING every question's demonstration on
// the host FPU (and cross-checks it against the softfloat engine), prints
// the quiz the way a participant would see it, then grades two synthetic
// participants: one guessing at chance and one answering from the key.
//
//   ./quickstart            # print quiz + answer key with evidence
//   ./quickstart --quiz     # print only the participant-facing quiz

#include <cstdio>
#include <cstring>
#include <string>

#include "core/session.hpp"
#include "stats/prng.hpp"

namespace quiz = fpq::quiz;

namespace {

quiz::CoreSheet guessing_sheet(fpq::stats::Xoshiro256pp& g) {
  quiz::CoreSheet sheet;
  for (auto& answer : sheet.answers) {
    answer = fpq::stats::bernoulli(g, 0.5) ? quiz::Answer::kTrue
                                           : quiz::Answer::kFalse;
  }
  return sheet;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quiz_only = argc > 1 && std::strcmp(argv[1], "--quiz") == 0;

  // Key from the host hardware...
  const quiz::QuizSession session(quiz::find_backend("native-binary64"));

  if (quiz_only) {
    std::fputs(session.render_quiz_text().c_str(), stdout);
    return 0;
  }

  std::puts("== the quiz, as a participant sees it =====================");
  std::fputs(session.render_quiz_text().c_str(), stdout);

  // ... cross-checked against the softfloat engine.
  const quiz::QuizSession soft_session(
      quiz::find_backend("softfloat-binary64"));
  std::string mismatch;
  const bool hw_standard = quiz::key_matches_standard(session.key(), &mismatch);
  const bool soft_standard =
      quiz::key_matches_standard(soft_session.key(), &mismatch);
  std::printf(
      "\nanswer keys: hardware %s, softfloat %s the IEEE standard key\n\n",
      hw_standard ? "matches" : "DIVERGES FROM",
      soft_standard ? "matches" : "DIVERGES FROM");

  std::puts("== the answer key, with executed evidence =================");
  std::fputs(quiz::render_answer_key(session.key()).c_str(), stdout);

  std::puts("== grading: a participant guessing at chance ==============");
  fpq::stats::Xoshiro256pp g(2018);
  const auto chance_report =
      session.grade(guessing_sheet(g), quiz::OptSheet{});
  std::printf("  core score %zu/15 (chance expectation 7.5)\n",
              chance_report.core_score);
  std::printf(
      "  the paper's 199 developers averaged 8.5/15 — barely better\n\n");

  std::puts("== grading: answering straight from the key ===============");
  const auto expert_report = session.grade(session.perfect_core_sheet(),
                                           session.perfect_opt_sheet());
  std::printf("  core score %zu/15, optimization %zu/3 + level correct\n",
              expert_report.core_score, expert_report.opt_tf.correct);
  return hw_standard && soft_standard ? 0 : 1;
}
