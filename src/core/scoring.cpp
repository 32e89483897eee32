#include "core/scoring.hpp"

#include "parallel/shard.hpp"

namespace fpq::quiz {

namespace {

template <std::size_t N>
QuizTally score(const std::array<Answer, N>& answers,
                const std::array<Truth, N>& key) noexcept {
  std::array<std::size_t, kGradeCount> slots{};
  add_grades(slots, answers, key);
  return {slots[0], slots[1], slots[2], slots[3]};
}

}  // namespace

QuizTally score_core(
    const CoreSheet& sheet,
    const std::array<Truth, kCoreQuestionCount>& key) noexcept {
  return score(sheet.answers, key);
}

QuizTally score_opt_tf(
    const OptSheet& sheet,
    const std::array<Truth, kOptTrueFalseCount>& key) noexcept {
  return score(sheet.tf_answers, key);
}

std::vector<QuizTally> score_core_batch(
    std::span<const CoreSheet> sheets,
    const std::array<Truth, kCoreQuestionCount>& key,
    parallel::ThreadPool& pool) {
  std::vector<QuizTally> tallies(sheets.size());
  const std::size_t chunks =
      parallel::recommended_chunks(pool, sheets.size(), 64);
  parallel::parallel_map_chunks(
      pool, sheets.size(), chunks,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          tallies[i] = score_core(sheets[i], key);
        }
      });
  return tallies;
}

std::vector<QuizTally> score_opt_tf_batch(
    std::span<const OptSheet> sheets,
    const std::array<Truth, kOptTrueFalseCount>& key,
    parallel::ThreadPool& pool) {
  std::vector<QuizTally> tallies(sheets.size());
  const std::size_t chunks =
      parallel::recommended_chunks(pool, sheets.size(), 64);
  parallel::parallel_map_chunks(
      pool, sheets.size(), chunks,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          tallies[i] = score_opt_tf(sheets[i], key);
        }
      });
  return tallies;
}

}  // namespace fpq::quiz
