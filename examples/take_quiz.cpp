// take_quiz — actually sit the paper's survey, interactively.
//
// Reads answers from stdin (T / F / D per question; an -O level or D for
// the multiple-choice one), grades against the key executed on this
// machine, and prints the full report with the paper's cohort as the
// comparison group. Pipe answers for scripted runs:
//
//   printf 'T\nF\nF\nF\nF\nF\nT\nF\nT\nF\nT\nT\nT\nT\nF\nF\nF\n-O2\nT\n4\n2\n1\n5\n2\n' |
//     ./take_quiz

#include <array>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/question_bank.hpp"
#include "core/session.hpp"
#include "fpmon/report.hpp"
#include "paperdata/paperdata.hpp"

namespace quiz = fpq::quiz;

namespace {

bool parse_tf(const std::string& s, quiz::Answer& out) {
  if (s.empty()) return false;
  switch (s[0]) {
    case 'T':
    case 't':
      out = quiz::Answer::kTrue;
      return true;
    case 'F':
    case 'f':
      out = quiz::Answer::kFalse;
      return true;
    case 'D':
    case 'd':
      out = quiz::Answer::kDontKnow;
      return true;
    default:
      return false;
  }
}

std::string prompt_line(const char* text) {
  std::printf("%s\n> ", text);
  std::fflush(stdout);
  std::string line;
  if (!std::getline(std::cin, line)) return "";
  return line;
}

}  // namespace

int main() {
  const quiz::QuizSession session(quiz::find_backend("native-binary64"));

  std::puts("The IPDPS 2018 floating point survey. Answer T, F, or D "
            "(don't know).\n");

  quiz::CoreSheet core;
  int n = 1;
  for (const auto& q : quiz::core_questions()) {
    std::printf("Q%d.\n    %s\n  Claim: %s\n", n++,
                std::string(q.snippet).c_str(),
                std::string(q.assertion).c_str());
    quiz::Answer a = quiz::Answer::kUnanswered;
    const std::string line = prompt_line("  True / False / Don't know?");
    if (!parse_tf(line, a)) a = quiz::Answer::kUnanswered;
    core[q.id] = a;
    std::puts("");
  }

  quiz::OptSheet opt;
  const quiz::OptQuestionId tf_ids[] = {quiz::OptQuestionId::kMadd,
                                        quiz::OptQuestionId::kFlushToZero,
                                        quiz::OptQuestionId::kFastMath};
  std::size_t tf_slot = 0;
  for (const auto& q : quiz::opt_questions()) {
    std::printf("Q%d.\n  %s\n", n++, std::string(q.prompt).c_str());
    if (q.is_true_false) {
      quiz::Answer a = quiz::Answer::kUnanswered;
      const std::string line = prompt_line("  True / False / Don't know?");
      if (!parse_tf(line, a)) a = quiz::Answer::kUnanswered;
      (void)tf_ids;
      opt.tf_answers[tf_slot++] = a;
    } else {
      const std::string line =
          prompt_line("  -O0 / -O1 / -O2 / -O3 / -Ofast / D?");
      opt.level_choice = quiz::kOptLevelUnanswered;
      if (!line.empty() && (line[0] == 'D' || line[0] == 'd')) {
        opt.level_choice = quiz::kOptLevelDontKnow;
      } else {
        for (std::size_t c = 0; c < quiz::kOptLevelChoiceCount; ++c) {
          if (line == quiz::kOptLevelChoices[c]) opt.level_choice = c;
        }
      }
    }
    std::puts("");
  }

  // Suspicion quiz (§II-D): Likert 1..5 per exceptional condition.
  std::puts("Final section. A simulation ran to completion; a monitor "
            "reports which exceptional\nconditions occurred at least once. "
            "For each, how suspicious would you be of the\nresults? "
            "(1 = not suspicious, 5 = maximally suspicious)\n");
  std::array<int, quiz::kSuspicionItemCount> suspicion{};
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto& item =
        quiz::suspicion_item(static_cast<quiz::SuspicionItemId>(c));
    std::printf("Q%d.\n  %s\n", n++,
                std::string(item.condition_description).c_str());
    const std::string line = prompt_line("  1-5?");
    int level = 0;
    if (!line.empty() && line[0] >= '1' && line[0] <= '5') {
      level = line[0] - '0';
    }
    suspicion[c] = level;
    std::puts("");
  }

  std::puts("================ your report ================\n");
  std::fputs(session.render_report(core, opt).c_str(), stdout);

  const auto report = session.grade(core, opt);
  const auto paper = fpq::paperdata::core_quiz_averages();
  std::printf(
      "\ncontext: the paper's %zu developers averaged %.1f/15 (chance "
      "%.1f). You scored %zu/15 — %s.\n",
      fpq::paperdata::kMainCohortSize, paper.correct, paper.chance,
      report.core_score,
      static_cast<double>(report.core_score) > paper.correct
          ? "above the studied cohort"
          : "at or below the studied cohort");

  std::puts("\nsuspicion calibration vs the expert ranking (§IV-D):");
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto id = static_cast<quiz::SuspicionItemId>(c);
    const auto& item = quiz::suspicion_item(id);
    if (suspicion[c] == 0) {
      std::printf("  %-10s you: -    advised: %d\n",
                  quiz::suspicion_item_label(id).c_str(),
                  item.advised_level);
      continue;
    }
    std::printf("  %-10s you: %d    advised: %d   %s\n",
                quiz::suspicion_item_label(id).c_str(), suspicion[c],
                item.advised_level,
                suspicion[c] == item.advised_level ? "" :
                suspicion[c] < item.advised_level ? "(under-suspicious!)"
                                                  : "(over-suspicious)");
  }
  std::puts("\n(the paper found ~1/3 of respondents report below-maximum "
            "suspicion even for NaN results)");
  return 0;
}
