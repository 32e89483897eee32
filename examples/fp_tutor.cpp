// fp_tutor — per-question floating point lessons with executed evidence.
//
// The paper's conclusion (§V): "the community has just not found the right
// training approach yet. A rigorous process to develop effective training
// for a broad range of developers is an action that the HPC community...
// could undertake." This tool is a starting artifact: for every quiz
// question it prints the code, the claim, the answer AS DEMONSTRATED on
// this machine, the witness values, and the rationale — training material
// that can never drift out of sync with reality, because it is executed.
//
//   ./fp_tutor           # all lessons
//   ./fp_tutor 5         # one lesson by number (1-15 core, 16-19 opt)

#include <cstdio>
#include <cstdlib>

#include "core/ground_truth.hpp"

namespace quiz = fpq::quiz;

namespace {

void core_lesson(std::size_t index, const quiz::AnswerKey& key) {
  const auto id = static_cast<quiz::CoreQuestionId>(index);
  const auto& q = quiz::core_question(id);
  const auto& demo = key.core[index];
  std::printf("Lesson %zu: %s\n", index + 1,
              quiz::core_question_label(id).c_str());
  std::printf("  code:       %s\n", std::string(q.snippet).c_str());
  std::printf("  claim:      %s\n", std::string(q.assertion).c_str());
  std::printf("  answer:     %s (demonstrated, not asserted)\n",
              demo.truth == quiz::Truth::kTrue ? "TRUE" : "FALSE");
  std::printf("  evidence:   %s\n", demo.witness.c_str());
  std::printf("  why:        %s\n\n", std::string(q.rationale).c_str());
}

void opt_lesson(std::size_t index, const quiz::AnswerKey& key) {
  const auto id = static_cast<quiz::OptQuestionId>(index);
  const auto& q = quiz::opt_question(id);
  const auto& demo = key.opt[index];
  std::printf("Lesson %zu: %s\n", quiz::kCoreQuestionCount + index + 1,
              quiz::opt_question_label(id).c_str());
  std::printf("  prompt:     %s\n", std::string(q.prompt).c_str());
  std::printf("  answer:     %s\n",
              q.is_true_false
                  ? (demo.truth == quiz::Truth::kTrue ? "TRUE" : "FALSE")
                  : quiz::kOptLevelChoices[key.opt_level_choice]);
  std::printf("  evidence:   %s\n", demo.witness.c_str());
  std::printf("  why:        %s\n\n", std::string(q.rationale).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const quiz::AnswerKey key =
      quiz::derive_answer_key(quiz::find_backend("native-binary64"));

  if (argc > 1) {
    const long n = std::strtol(argv[1], nullptr, 10);
    if (n >= 1 && n <= static_cast<long>(quiz::kCoreQuestionCount)) {
      core_lesson(static_cast<std::size_t>(n - 1), key);
      return 0;
    }
    const long opt_n = n - static_cast<long>(quiz::kCoreQuestionCount);
    if (opt_n >= 1 && opt_n <= static_cast<long>(quiz::kOptQuestionCount)) {
      opt_lesson(static_cast<std::size_t>(opt_n - 1), key);
      return 0;
    }
    std::fprintf(stderr, "lesson number out of range (1-%zu)\n",
                 quiz::kCoreQuestionCount + quiz::kOptQuestionCount);
    return 1;
  }

  std::printf("floating point lessons, evidence executed on: %s\n\n",
              key.backend_name.c_str());
  for (std::size_t i = 0; i < quiz::kCoreQuestionCount; ++i) {
    core_lesson(i, key);
  }
  for (std::size_t i = 0; i < quiz::kOptQuestionCount; ++i) {
    opt_lesson(i, key);
  }
  std::puts(
      "The paper found developers answer the first 15 barely above chance\n"
      "(8.5/15) and say \"don't know\" to the last 4 over two thirds of\n"
      "the time. Every answer above was demonstrated by running the\n"
      "arithmetic on this machine.");
  return 0;
}
