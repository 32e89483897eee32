// fpq::survey — CSV import/export of survey records.
//
// Lets synthetic datasets leave the process (for R/pandas analysis) and
// come back. One row per respondent; multi-select fields are
// semicolon-joined, strictly ascending index lists inside one CSV field;
// quiz answers are single characters (T/F/D/U); the level choice is its
// index (or D/U).
//
// The readers are hardened against hostile input: truncated rows,
// non-numeric fields, enum codes outside the paperdata category tables
// and multi-select lists out of order or with a repeated index all
// produce a structured ParseError naming the line and the offending
// column — never UB, never a partially-parsed record set.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "survey/record.hpp"

namespace fpq::survey {

/// Where and why a CSV read failed. `line` is 1-based (line 1 is the
/// header); 0 means the failure is not tied to a line (e.g. empty
/// input). `field` is the column name from the header, empty for
/// row-level failures (wrong field count, unterminated quote).
struct ParseError {
  std::size_t line = 0;
  std::string field;
  std::string message;

  /// "line 7, field 'area': index 23 out of range ..." — the whole
  /// error flattened into one line for messages and logs.
  std::string to_string() const;
};

/// Writes the header plus one row per record.
void write_csv(std::ostream& out, std::span<const SurveyRecord> records);

/// Streaming read: invokes `sink` with each parsed record as soon as its
/// row validates, so arbitrarily large files can feed the survey
/// accumulators without materializing a record vector. Stops at the first
/// malformed row and returns its ParseError; records already delivered
/// stay delivered (the caller owns any rollback semantics). Returns
/// nullopt when the whole stream parsed.
std::optional<ParseError> for_each_csv_record(
    std::istream& in, const std::function<void(SurveyRecord&&)>& sink);

/// Parses records written by write_csv. Returns the first parse error,
/// or nullopt on success (and only then replaces `records`). Background
/// enum codes are validated against the fpq::paperdata category tables.
/// Wrapper over for_each_csv_record.
std::optional<ParseError> read_csv(std::istream& in,
                                   std::vector<SurveyRecord>& records);

/// The exact header line used by write_csv (useful for validation).
std::string csv_header();

/// Student-cohort variant (§III: suspicion responses only).
void write_student_csv(std::ostream& out,
                       std::span<const StudentRecord> records);
std::optional<ParseError> for_each_student_csv_record(
    std::istream& in, const std::function<void(StudentRecord&&)>& sink);
std::optional<ParseError> read_student_csv(
    std::istream& in, std::vector<StudentRecord>& records);
std::string student_csv_header();

}  // namespace fpq::survey
