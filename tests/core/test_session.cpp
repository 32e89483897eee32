#include <gtest/gtest.h>

#include "core/session.hpp"

namespace quiz = fpq::quiz;

namespace {

TEST(Session, PerfectSheetsGradePerfect) {
  const quiz::QuizSession session(quiz::find_backend("softfloat-binary64"));
  const auto report = session.grade(session.perfect_core_sheet(),
                                    session.perfect_opt_sheet());
  EXPECT_EQ(report.core.correct, quiz::kCoreQuestionCount);
  EXPECT_EQ(report.opt_tf.correct, quiz::kOptTrueFalseCount);
  EXPECT_EQ(report.level_grade, quiz::Grade::kCorrect);
  EXPECT_EQ(report.core_score, 15u);
  EXPECT_DOUBLE_EQ(report.core_vs_chance, 7.5);
}

TEST(Session, EmptySheetsGradeUnanswered) {
  const quiz::QuizSession session(quiz::find_backend("softfloat-binary64"));
  const auto report = session.grade(quiz::CoreSheet{}, quiz::OptSheet{});
  EXPECT_EQ(report.core.unanswered, quiz::kCoreQuestionCount);
  EXPECT_EQ(report.core_score, 0u);
  EXPECT_DOUBLE_EQ(report.core_vs_chance, -7.5);
}

TEST(Session, KeyComesFromBackend) {
  const quiz::QuizSession session(quiz::find_backend("native-binary64"));
  EXPECT_EQ(session.key().backend_name, "native-binary64");
  std::string mismatch;
  EXPECT_TRUE(quiz::key_matches_standard(session.key(), &mismatch))
      << mismatch;
}

TEST(Session, QuizTextListsAllQuestionsWithoutLabels) {
  const quiz::QuizSession session(quiz::find_backend("softfloat-binary64"));
  const std::string text = session.render_quiz_text();
  EXPECT_NE(text.find("Q1."), std::string::npos);
  EXPECT_NE(text.find("Q19."), std::string::npos) << "15 core + 4 opt";
  // Labels like "Associativity" must NOT appear in the survey text.
  EXPECT_EQ(text.find("Associativity"), std::string::npos);
  EXPECT_EQ(text.find("Saturation"), std::string::npos);
  // The level question's options do.
  EXPECT_NE(text.find("-O2"), std::string::npos);
}

TEST(Session, ReportExplainsIncorrectAnswers) {
  const quiz::QuizSession session(quiz::find_backend("softfloat-binary64"));
  quiz::CoreSheet sheet = session.perfect_core_sheet();
  // Flip Identity (truth False -> answer True).
  sheet[quiz::CoreQuestionId::kIdentity] = quiz::Answer::kTrue;
  const std::string out =
      session.render_report(sheet, session.perfect_opt_sheet());
  EXPECT_NE(out.find("Identity: True — INCORRECT"), std::string::npos)
      << out;
  EXPECT_NE(out.find("core score: 14/15"), std::string::npos);
}

TEST(Session, ReportShowsChanceLine) {
  const quiz::QuizSession session(quiz::find_backend("softfloat-binary64"));
  const std::string out =
      session.render_report(quiz::CoreSheet{}, quiz::OptSheet{});
  EXPECT_NE(out.find("chance would be 7.5"), std::string::npos);
}

}  // namespace
