// Exhaustive grading through the figure accumulators.
//
// Every accumulator that grades answers (AverageTally, ScoreHistogram,
// Breakdown, FactorLevel) counts through the constexpr grade table. These
// tests drive each of them over every question x every Answer x both
// Truths, every level_choice 0..7, and out-of-range suspicion levels, and
// require agreement with grade_answer / score_core / score_opt_tf /
// grade_level_choice, which are themselves pinned against the written
// grading rules.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "core/ground_truth.hpp"
#include "core/scoring.hpp"
#include "survey/accumulators.hpp"

namespace sv = fpq::survey;
namespace quiz = fpq::quiz;

namespace {

using quiz::Answer;
using quiz::Grade;
using quiz::Truth;

constexpr std::array<Answer, 4> kAnswers{Answer::kTrue, Answer::kFalse,
                                         Answer::kDontKnow,
                                         Answer::kUnanswered};
constexpr std::array<Truth, 2> kTruths{Truth::kTrue, Truth::kFalse};

// The grading rules as the paper states them, written without the table.
Grade spec_grade(Answer a, Truth t) {
  if (a == Answer::kDontKnow) return Grade::kDontKnow;
  if (a == Answer::kUnanswered) return Grade::kUnanswered;
  return (a == Answer::kTrue) == (t == Truth::kTrue) ? Grade::kCorrect
                                                     : Grade::kIncorrect;
}

// Mean tallies of a single record: each field is that record's count.
void expect_tally(const sv::AverageTally& got, const quiz::QuizTally& want) {
  EXPECT_EQ(got.correct, static_cast<double>(want.correct));
  EXPECT_EQ(got.incorrect, static_cast<double>(want.incorrect));
  EXPECT_EQ(got.dont_know, static_cast<double>(want.dont_know));
  EXPECT_EQ(got.unanswered, static_cast<double>(want.unanswered));
}

// A single record's breakdown row is 100 % in its grade's column.
void expect_row(const sv::BreakdownRow& row, Grade g) {
  EXPECT_EQ(row.pct_correct, g == Grade::kCorrect ? 100.0 : 0.0);
  EXPECT_EQ(row.pct_incorrect, g == Grade::kIncorrect ? 100.0 : 0.0);
  EXPECT_EQ(row.pct_dont_know, g == Grade::kDontKnow ? 100.0 : 0.0);
  EXPECT_EQ(row.pct_unanswered, g == Grade::kUnanswered ? 100.0 : 0.0);
}

std::size_t one_level(const sv::SurveyRecord&) { return 0; }

sv::FactorLevelAccumulator single_level(const sv::CoreKey& core,
                                        const sv::OptKey& opt) {
  return sv::FactorLevelAccumulator({"all"}, &one_level, core, opt);
}

// A record whose answers cycle through all four Answers, so the slots
// next to the probed question's are populated too.
sv::SurveyRecord background_record() {
  sv::SurveyRecord r;
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    r.core.answers[q] = kAnswers[q % kAnswers.size()];
  }
  for (std::size_t q = 0; q < quiz::kOptTrueFalseCount; ++q) {
    r.opt.tf_answers[q] = kAnswers[(q + 1) % kAnswers.size()];
  }
  return r;
}

TEST(GradeTable, MatchesTheWrittenRules) {
  for (const Answer a : kAnswers) {
    for (const Truth t : kTruths) {
      EXPECT_EQ(quiz::grade_answer(a, t), spec_grade(a, t));
      EXPECT_EQ(quiz::grade_slot(a, t),
                static_cast<std::size_t>(spec_grade(a, t)));
    }
  }
  // Values outside the enumerators grade as the switch they replace did.
  EXPECT_EQ(quiz::grade_answer(static_cast<Answer>(4), Truth::kTrue),
            Grade::kUnanswered);
  EXPECT_EQ(quiz::grade_answer(Answer::kTrue, static_cast<Truth>(2)),
            Grade::kIncorrect);
  EXPECT_EQ(quiz::grade_answer(Answer::kFalse, static_cast<Truth>(2)),
            Grade::kIncorrect);
  EXPECT_EQ(quiz::grade_answer(Answer::kDontKnow, static_cast<Truth>(2)),
            Grade::kDontKnow);
}

TEST(GradeTable, CoreAccumulatorsAgreeOnEveryQuestionAnswerAndTruth) {
  const sv::OptKey opt_key = quiz::standard_opt_truths();
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    for (const Answer a : kAnswers) {
      for (const Truth t : kTruths) {
        SCOPED_TRACE(testing::Message()
                     << "question " << q << " answer " << static_cast<int>(a)
                     << " truth " << static_cast<int>(t));
        sv::CoreKey key = quiz::standard_core_truths();
        key[q] = t;
        sv::SurveyRecord r = background_record();
        r.core.answers[q] = a;
        const quiz::QuizTally want = quiz::score_core(r.core, key);

        auto tally = sv::AverageTallyAccumulator::core(key);
        tally.add(r);
        expect_tally(tally.finish(), want);

        sv::ScoreHistogramAccumulator hist(key);
        hist.add(r);
        EXPECT_EQ(hist.finish().total(), 1u);
        EXPECT_EQ(hist.finish().count(static_cast<int>(want.correct)), 1u);

        auto breakdown = sv::BreakdownAccumulator::core(key);
        breakdown.add(r);
        const auto rows = breakdown.finish();
        for (std::size_t k = 0; k < rows.size(); ++k) {
          expect_row(rows[k], quiz::grade_answer(r.core.answers[k], key[k]));
        }
        expect_row(rows[q], spec_grade(a, t));

        auto level = single_level(key, opt_key);
        level.add(r);
        const auto levels = level.finish();
        EXPECT_EQ(levels[0].n, 1u);
        expect_tally(levels[0].core, want);
        expect_tally(levels[0].opt, quiz::score_opt_tf(r.opt, opt_key));
      }
    }
  }
}

TEST(GradeTable, OptAccumulatorsAgreeOnEveryQuestionAnswerAndTruth) {
  const sv::CoreKey core_key = quiz::standard_core_truths();
  // Breakdown rows are in paper order: the T/F sheet's [MADD, Flush to
  // Zero, Fast-math] land on rows 0, 1 and 3.
  constexpr std::array<std::size_t, quiz::kOptTrueFalseCount> kRowOf{0, 1,
                                                                     3};
  for (std::size_t q = 0; q < quiz::kOptTrueFalseCount; ++q) {
    for (const Answer a : kAnswers) {
      for (const Truth t : kTruths) {
        SCOPED_TRACE(testing::Message()
                     << "question " << q << " answer " << static_cast<int>(a)
                     << " truth " << static_cast<int>(t));
        sv::OptKey key = quiz::standard_opt_truths();
        key[q] = t;
        sv::SurveyRecord r = background_record();
        r.opt.tf_answers[q] = a;
        const quiz::QuizTally want = quiz::score_opt_tf(r.opt, key);

        auto tally = sv::AverageTallyAccumulator::opt_tf(key);
        tally.add(r);
        expect_tally(tally.finish(), want);

        auto breakdown = sv::BreakdownAccumulator::opt(key);
        breakdown.add(r);
        const auto rows = breakdown.finish();
        for (std::size_t k = 0; k < quiz::kOptTrueFalseCount; ++k) {
          expect_row(rows[kRowOf[k]],
                     quiz::grade_answer(r.opt.tf_answers[k], key[k]));
        }
        expect_row(rows[kRowOf[q]], spec_grade(a, t));

        auto level = single_level(core_key, key);
        level.add(r);
        const auto levels = level.finish();
        expect_tally(levels[0].core, quiz::score_core(r.core, core_key));
        expect_tally(levels[0].opt, want);
      }
    }
  }
}

TEST(GradeTable, LevelChoiceKeepsItsMappingIncludingSentinels) {
  // 0..4 are the options (2 = "-O2" is correct), 5 is don't-know, 6 is
  // unanswered, and 7 is past every sentinel.
  constexpr std::array<Grade, 8> kWant{
      Grade::kIncorrect, Grade::kIncorrect,  Grade::kCorrect,
      Grade::kIncorrect, Grade::kIncorrect,  Grade::kDontKnow,
      Grade::kUnanswered, Grade::kUnanswered};
  const sv::OptKey key = quiz::standard_opt_truths();
  for (std::size_t choice = 0; choice < kWant.size(); ++choice) {
    SCOPED_TRACE(choice);
    EXPECT_EQ(quiz::grade_level_choice(choice), kWant[choice]);
    sv::SurveyRecord r = background_record();
    r.opt.level_choice = choice;
    auto breakdown = sv::BreakdownAccumulator::opt(key);
    breakdown.add(r);
    expect_row(breakdown.finish()[2], kWant[choice]);
    // The level question stays out of the T/F tallies.
    auto tally = sv::AverageTallyAccumulator::opt_tf(key);
    tally.add(r);
    expect_tally(tally.finish(), quiz::score_opt_tf(r.opt, key));
  }
}

TEST(GradeTable, SuspicionLevelsOutsideOneToFiveAreDropped) {
  fpq::stats::LikertAccumulator likert;
  likert.add(0);
  likert.add(6);
  EXPECT_EQ(likert.dropped(), 2u);
  EXPECT_EQ(likert.total(), 0u);
  likert.add(3);
  EXPECT_EQ(likert.total(), 1u);
  EXPECT_EQ(likert.count(3), 1u);

  sv::SuspicionAccumulator acc;
  sv::SurveyRecord dropped;
  dropped.suspicion = {0, 6, 0, 6, 0};
  sv::SurveyRecord kept;
  kept.suspicion = {2, 2, 4, 4, 5};
  acc.add(dropped);
  acc.add(kept);
  const auto dists = acc.finish();
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    EXPECT_EQ(dists[c].proportion(kept.suspicion[c]), 1.0) << c;
  }
}

TEST(GradeTable, MergeWithADifferentKeyThrows) {
  const sv::CoreKey core = quiz::standard_core_truths();
  const sv::OptKey opt = quiz::standard_opt_truths();
  sv::CoreKey core2 = core;
  core2[7] = core2[7] == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
  sv::OptKey opt2 = opt;
  opt2[1] = opt2[1] == Truth::kTrue ? Truth::kFalse : Truth::kTrue;

  auto tally = sv::AverageTallyAccumulator::core(core);
  EXPECT_THROW(tally.merge(sv::AverageTallyAccumulator::core(core2)),
               std::invalid_argument);
  auto opt_tally = sv::AverageTallyAccumulator::opt_tf(opt);
  EXPECT_THROW(opt_tally.merge(sv::AverageTallyAccumulator::opt_tf(opt2)),
               std::invalid_argument);
  sv::ScoreHistogramAccumulator hist(core);
  EXPECT_THROW(hist.merge(sv::ScoreHistogramAccumulator(core2)),
               std::invalid_argument);
  auto breakdown = sv::BreakdownAccumulator::core(core);
  EXPECT_THROW(breakdown.merge(sv::BreakdownAccumulator::core(core2)),
               std::invalid_argument);
  auto opt_breakdown = sv::BreakdownAccumulator::opt(opt);
  EXPECT_THROW(opt_breakdown.merge(sv::BreakdownAccumulator::opt(opt2)),
               std::invalid_argument);
  auto level = single_level(core, opt);
  EXPECT_THROW(level.merge(single_level(core2, opt)), std::invalid_argument);
  EXPECT_THROW(level.merge(single_level(core, opt2)), std::invalid_argument);
}

}  // namespace
