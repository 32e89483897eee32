// Shared plumbing for the benches: the canonical evaluation cohort and
// the strict number parsers the gate benches read their options with.
// Every bench uses the same seed so EXPERIMENTS.md quotes one consistent
// synthetic dataset. Perf numbers with a recorded build and run identity
// come from perfbench/, not from these benches.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

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

}  // namespace fpq::bench
