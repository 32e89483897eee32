// Shared plumbing for the reproduction benches: the fixed evaluation
// cohorts, comparison-row helpers and the strict number parsers the gate
// benches read their options with. Every bench uses the same seed so
// EXPERIMENTS.md quotes one consistent synthetic dataset. Perf numbers
// with a recorded build and run identity come from perfbench/, not from
// these benches.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "parallel/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "report/compare.hpp"
#include "respondent/population.hpp"
#include "survey/record.hpp"

namespace fpq::bench {

/// Parses a whole decimal/hex/octal number no larger than `max`; rejects
/// signs, trailing characters and overflow. The benches' gates read their
/// integer options through this, so a typo exits 2 instead of running a
/// zero-sized (and vacuously passing) gate.
inline bool parse_number(const char* text, std::uint64_t max,
                         std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* rest = nullptr;
  out = std::strtoull(text, &rest, 0);
  return errno == 0 && *rest == '\0' && out <= max;
}

/// Parses a whole finite, positive number; rejects NaN, infinities,
/// zero, negatives, out-of-range values and trailing characters (a NaN
/// budget or ceiling would make every `measured > limit` gate pass).
inline bool parse_positive(const char* text, double& out) {
  errno = 0;
  char* rest = nullptr;
  out = std::strtod(text, &rest);
  return rest != text && *rest == '\0' && errno == 0 &&
         std::isfinite(out) && out > 0.0;
}

inline constexpr std::uint64_t kCohortSeed = 20180521;  // IPDPS 2018

inline const std::vector<survey::SurveyRecord>& main_cohort() {
  static const auto cohort =
      respondent::generate_main_cohort(kCohortSeed, 199);
  return cohort;
}

inline const std::vector<survey::StudentRecord>& student_cohort() {
  static const auto cohort =
      respondent::generate_student_cohort(kCohortSeed, 52);
  return cohort;
}

/// Shared pool for the streaming figure benches (default thread count).
inline parallel::ThreadPool& stream_pool() {
  static parallel::ThreadPool pool;
  return pool;
}

/// Streams the first n records of the kCohortSeed main cohort through a
/// fresh accumulator per shard: each shard seeks its CohortGenerator to
/// the chunk start (two cheap root draws per skipped respondent) and
/// feeds its range, so no record vector ever exists. Bit-identical to
/// folding generate_main_cohort(kCohortSeed, n) through one accumulator.
template <typename MakeAcc>
auto stream_main_cohort(std::size_t n, const MakeAcc& make_acc) {
  auto& pool = stream_pool();
  return parallel::stream_accumulate(
      pool, n, parallel::recommended_chunks(pool, n, 64), make_acc,
      [](auto& acc, std::size_t begin, std::size_t end) {
        respondent::CohortGenerator gen(kCohortSeed);
        gen.seek(begin);
        for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
      });
}

/// Student-cohort counterpart of stream_main_cohort.
template <typename MakeAcc>
auto stream_student_cohort(std::size_t n, const MakeAcc& make_acc) {
  auto& pool = stream_pool();
  return parallel::stream_accumulate(
      pool, n, parallel::recommended_chunks(pool, n, 64), make_acc,
      [](auto& acc, std::size_t begin, std::size_t end) {
        respondent::StudentCohortGenerator gen(kCohortSeed);
        gen.seek(begin);
        for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
      });
}

/// Prints a comparison block and returns 0 if everything is within
/// tolerance, 1 otherwise (benches exit nonzero on gross divergence so CI
/// catches shape regressions).
inline int finish(const std::string& title,
                  const std::vector<report::ComparisonRow>& rows,
                  int decimals = 2) {
  std::fputs(report::render_comparison(title, rows, decimals).c_str(),
             stdout);
  return report::summarize_comparison(rows).all_within() ? 0 : 1;
}

}  // namespace fpq::bench
