// fpq::report — paper-vs-measured comparison rendering.
//
// bench_figures prints one comparison block per figure group of the
// paper: for each quantity the paper reports, the paper's value, our
// measured value, the absolute deviation, the tolerance and a verdict.
// The same output is the generated section of EXPERIMENTS.md.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fpq::report {

/// One paper-vs-measured quantity. A distance row is judged by
/// |paper - measured| <= tolerance; a shape row by its predicate.
struct ComparisonRow {
  std::string quantity;   ///< e.g. "core quiz mean score"
  double paper = 0.0;     ///< value reported in the paper
  double measured = 0.0;  ///< value this reproduction measured
  double tolerance = 0.0; ///< acceptable |paper - measured| (distance rows)
  /// Set on a shape row: whether the predicate that `quantity` states
  /// holds. The tolerance is then unused.
  std::optional<bool> holds = std::nullopt;
  /// Set when the sample behind `measured` is below the claim's minimum
  /// size: the row is untestable, and counts neither as OK nor DEVIATES.
  std::optional<std::size_t> untestable_n = std::nullopt;
};

enum class Verdict { kOk, kDeviates, kUntestable };

Verdict verdict(const ComparisonRow& row) noexcept;

/// Aggregate verdict over a comparison block.
struct ComparisonSummary {
  std::size_t total = 0;
  std::size_t within_tolerance = 0;
  std::size_t untestable = 0;
  double max_abs_deviation = 0.0;  ///< over testable distance rows
  /// True when no row deviates (untestable rows do not count as OK).
  bool all_within() const noexcept {
    return within_tolerance + untestable == total;
  }
};

/// Computes the summary for a block of rows.
ComparisonSummary summarize_comparison(std::span<const ComparisonRow> rows);

/// Renders the block as a table with OK / DEVIATES / untestable markers
/// plus a summary line. `decimals` controls numeric formatting.
std::string render_comparison(const std::string& title,
                              std::span<const ComparisonRow> rows,
                              int decimals = 2);

}  // namespace fpq::report
