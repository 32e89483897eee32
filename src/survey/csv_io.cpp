#include "survey/csv_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <utility>

#include "paperdata/paperdata.hpp"
#include "report/csv.hpp"

namespace fpq::survey {

namespace {

constexpr char kAnswerChars[] = {'T', 'F', 'D', 'U'};

char answer_to_char(quiz::Answer a) {
  return kAnswerChars[static_cast<std::size_t>(a)];
}

bool char_to_answer(char c, quiz::Answer& out) {
  switch (c) {
    case 'T':
      out = quiz::Answer::kTrue;
      return true;
    case 'F':
      out = quiz::Answer::kFalse;
      return true;
    case 'D':
      out = quiz::Answer::kDontKnow;
      return true;
    case 'U':
      out = quiz::Answer::kUnanswered;
      return true;
    default:
      return false;
  }
}

std::string join_indices(const IndexSet& xs) {
  std::string out;
  for (const std::size_t x : xs) {
    if (!out.empty()) out += ';';
    out += std::to_string(x);
  }
  return out;
}

bool parse_size(const std::string& s, std::size_t& out) {
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

std::string level_to_string(std::size_t level) {
  if (level == quiz::kOptLevelDontKnow) return "D";
  if (level >= quiz::kOptLevelChoiceCount) return "U";
  return std::to_string(level);
}

/// Column names of csv_header(), split out once so parse errors can name
/// the offending column without hand-maintaining a second list.
std::vector<std::string> split_names(const std::string& header) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= header.size()) {
    const std::size_t sep = header.find(',', start);
    names.push_back(header.substr(
        start, sep == std::string::npos ? sep : sep - start));
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  return names;
}

/// Accumulates the first error for one row; every parse_* helper is a
/// no-op once an error is set, so the happy path reads straight through.
class RowParser {
 public:
  RowParser(const std::vector<std::string>& fields,
            const std::vector<std::string>& names, std::size_t line)
      : fields_(fields), names_(names), line_(line) {}

  bool failed() const { return error_.has_value(); }
  ParseError take_error() { return std::move(*error_); }

  void parse_count(const char* what, std::size_t& out) {
    if (error_) {
      ++next_;
      return;
    }
    if (!parse_size(fields_[next_], out)) {
      fail("not a " + std::string(what) + ": '" + fields_[next_] + "'");
      return;
    }
    ++next_;
  }

  void parse_enum(std::span<const paperdata::CategoryCount> table,
                  const char* table_name, std::size_t& out) {
    if (error_) {
      ++next_;
      return;
    }
    if (!parse_size(fields_[next_], out)) {
      fail("not an index: '" + fields_[next_] + "'");
      return;
    }
    if (out >= table.size()) {
      fail("index " + std::to_string(out) + " out of range for " +
           table_name + " (" + std::to_string(table.size()) + " rows)");
      return;
    }
    ++next_;
  }

  /// A semicolon-joined list of distinct row indices in ascending order,
  /// the only form write_csv produces and an IndexSet can hold.
  void parse_enum_list(std::span<const paperdata::CategoryCount> table,
                       const char* table_name, IndexSet& out) {
    if (error_) {
      ++next_;
      return;
    }
    out = {};
    const std::string& s = fields_[next_];
    std::size_t last = 0;
    std::size_t start = 0;
    while (!s.empty() && start <= s.size()) {
      const std::size_t sep = s.find(';', start);
      const std::string part =
          s.substr(start, sep == std::string::npos ? sep : sep - start);
      std::size_t value = 0;
      if (!parse_size(part, value)) {
        fail("not an index list: '" + s + "'");
        return;
      }
      if (value >= table.size()) {
        fail("index " + std::to_string(value) + " out of range for " +
             table_name + " (" + std::to_string(table.size()) + " rows)");
        return;
      }
      if (!out.empty() && value <= last) {
        fail("index list not strictly ascending: '" + s + "'");
        return;
      }
      out.insert(value);
      last = value;
      if (sep == std::string::npos) break;
      start = sep + 1;
    }
    ++next_;
  }

  void parse_answer(quiz::Answer& out) {
    if (error_) {
      ++next_;
      return;
    }
    if (fields_[next_].size() != 1 ||
        !char_to_answer(fields_[next_][0], out)) {
      fail("expected T, F, D or U, got '" + fields_[next_] + "'");
      return;
    }
    ++next_;
  }

  void parse_level(std::size_t& out) {
    if (error_) {
      ++next_;
      return;
    }
    const std::string& s = fields_[next_];
    if (s == "D") {
      out = quiz::kOptLevelDontKnow;
    } else if (s == "U") {
      out = quiz::kOptLevelUnanswered;
    } else if (!parse_size(s, out) || out >= quiz::kOptLevelChoiceCount) {
      fail("expected a level index below " +
           std::to_string(quiz::kOptLevelChoiceCount) + ", D or U, got '" +
           s + "'");
      return;
    }
    ++next_;
  }

  void parse_likert(int& out) {
    if (error_) {
      ++next_;
      return;
    }
    std::size_t level = 0;
    if (!parse_size(fields_[next_], level) || level < 1 || level > 5) {
      fail("Likert level must be 1..5, got '" + fields_[next_] + "'");
      return;
    }
    out = static_cast<int>(level);
    ++next_;
  }

 private:
  void fail(std::string message) {
    error_ = ParseError{line_, names_[next_], std::move(message)};
  }

  const std::vector<std::string>& fields_;
  const std::vector<std::string>& names_;
  std::size_t line_;
  std::size_t next_ = 0;
  std::optional<ParseError> error_;
};

ParseError row_shape_error(std::size_t line, std::size_t expected,
                           std::size_t got, bool split_ok) {
  if (!split_ok) {
    return {line, "", "unterminated quoted field"};
  }
  return {line, "",
          "expected " + std::to_string(expected) + " fields, got " +
              std::to_string(got) +
              (got < expected ? " (truncated row?)" : "")};
}

}  // namespace

std::string ParseError::to_string() const {
  std::string out;
  if (line != 0) out = "line " + std::to_string(line);
  if (!field.empty()) {
    out += out.empty() ? "field '" : ", field '";
    out += field + "'";
  }
  if (!out.empty()) out += ": ";
  return out + message;
}

std::string csv_header() {
  std::string out =
      "id,position,area,formal_training,informal_training,dev_role,"
      "fp_languages,arb_prec_languages,contributed_size,contributed_extent,"
      "involved_size,involved_extent";
  for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
    out += ",core_q" + std::to_string(q + 1);
  }
  out += ",opt_madd,opt_ftz,opt_fastmath,opt_level";
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    out += ",suspicion_" + std::to_string(c + 1);
  }
  return out;
}

void write_csv(std::ostream& out, std::span<const SurveyRecord> records) {
  out << csv_header() << '\n';
  fpq::report::CsvWriter writer(out);
  for (const auto& r : records) {
    std::vector<std::string> fields;
    fields.push_back(std::to_string(r.respondent_id));
    fields.push_back(std::to_string(r.background.position));
    fields.push_back(std::to_string(r.background.area));
    fields.push_back(std::to_string(r.background.formal_training));
    fields.push_back(join_indices(r.background.informal_training));
    fields.push_back(std::to_string(r.background.dev_role));
    fields.push_back(join_indices(r.background.fp_languages));
    fields.push_back(join_indices(r.background.arb_prec_languages));
    fields.push_back(std::to_string(r.background.contributed_size));
    fields.push_back(std::to_string(r.background.contributed_extent));
    fields.push_back(std::to_string(r.background.involved_size));
    fields.push_back(std::to_string(r.background.involved_extent));
    for (quiz::Answer a : r.core.answers) {
      fields.push_back(std::string(1, answer_to_char(a)));
    }
    for (quiz::Answer a : r.opt.tf_answers) {
      fields.push_back(std::string(1, answer_to_char(a)));
    }
    fields.push_back(level_to_string(r.opt.level_choice));
    for (int level : r.suspicion) fields.push_back(std::to_string(level));
    writer.write_row(fields);
  }
}

std::optional<ParseError> for_each_csv_record(
    std::istream& in, const std::function<void(SurveyRecord&&)>& sink) {
  std::string line;
  if (!std::getline(in, line)) {
    return ParseError{0, "", "empty input"};
  }
  const std::string header = csv_header();
  if (line != header) {
    return ParseError{1, "", "unexpected header"};
  }
  const std::vector<std::string> names = split_names(header);
  const std::size_t expected_fields = names.size();

  std::vector<std::string> fields;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const bool split_ok = fpq::report::csv_split(line, fields);
    if (!split_ok || fields.size() != expected_fields) {
      return row_shape_error(line_no, expected_fields, fields.size(),
                             split_ok);
    }
    SurveyRecord r;
    RowParser p(fields, names, line_no);
    std::size_t id = 0;
    p.parse_count("respondent id", id);
    r.respondent_id = id;
    p.parse_enum(paperdata::positions(), "positions (Fig 1)",
                 r.background.position);
    p.parse_enum(paperdata::areas(), "areas (Fig 2)", r.background.area);
    p.parse_enum(paperdata::formal_training(), "formal training (Fig 3)",
                 r.background.formal_training);
    p.parse_enum_list(paperdata::informal_training(),
                      "informal training (Fig 4)",
                      r.background.informal_training);
    p.parse_enum(paperdata::dev_roles(), "dev roles (Fig 5)",
                 r.background.dev_role);
    p.parse_enum_list(paperdata::fp_languages(), "FP languages (Fig 6)",
                      r.background.fp_languages);
    p.parse_enum_list(paperdata::arb_prec_languages(),
                      "arbitrary-precision languages (Fig 7)",
                      r.background.arb_prec_languages);
    p.parse_enum(paperdata::contributed_codebase_sizes(),
                 "contributed codebase sizes (Fig 8)",
                 r.background.contributed_size);
    p.parse_enum(paperdata::contributed_fp_extent(),
                 "contributed FP extent (Fig 9)",
                 r.background.contributed_extent);
    p.parse_enum(paperdata::involved_codebase_sizes(),
                 "involved codebase sizes (Fig 10)",
                 r.background.involved_size);
    p.parse_enum(paperdata::involved_fp_extent(),
                 "involved FP extent (Fig 11)",
                 r.background.involved_extent);
    for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
      p.parse_answer(r.core.answers[q]);
    }
    for (std::size_t q = 0; q < quiz::kOptTrueFalseCount; ++q) {
      p.parse_answer(r.opt.tf_answers[q]);
    }
    p.parse_level(r.opt.level_choice);
    for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
      p.parse_likert(r.suspicion[c]);
    }
    if (p.failed()) return p.take_error();
    sink(std::move(r));
  }
  return std::nullopt;
}

std::optional<ParseError> read_csv(std::istream& in,
                                   std::vector<SurveyRecord>& records) {
  std::vector<SurveyRecord> parsed;
  if (auto err = for_each_csv_record(
          in, [&parsed](SurveyRecord&& r) { parsed.push_back(std::move(r)); })) {
    return err;
  }
  // Replace the caller's vector only once the whole stream parsed.
  records = std::move(parsed);
  return std::nullopt;
}

std::string student_csv_header() {
  std::string out = "id";
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    out += ",suspicion_" + std::to_string(c + 1);
  }
  return out;
}

void write_student_csv(std::ostream& out,
                       std::span<const StudentRecord> records) {
  out << student_csv_header() << '\n';
  fpq::report::CsvWriter writer(out);
  for (const auto& r : records) {
    std::vector<std::string> fields;
    fields.push_back(std::to_string(r.respondent_id));
    for (int level : r.suspicion) fields.push_back(std::to_string(level));
    writer.write_row(fields);
  }
}

std::optional<ParseError> for_each_student_csv_record(
    std::istream& in, const std::function<void(StudentRecord&&)>& sink) {
  std::string line;
  if (!std::getline(in, line)) {
    return ParseError{0, "", "empty input"};
  }
  const std::string header = student_csv_header();
  if (line != header) {
    return ParseError{1, "", "unexpected header"};
  }
  const std::vector<std::string> names = split_names(header);

  std::vector<std::string> fields;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const bool split_ok = fpq::report::csv_split(line, fields);
    if (!split_ok || fields.size() != names.size()) {
      return row_shape_error(line_no, names.size(), fields.size(),
                             split_ok);
    }
    StudentRecord r;
    RowParser p(fields, names, line_no);
    std::size_t id = 0;
    p.parse_count("respondent id", id);
    r.respondent_id = id;
    for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
      p.parse_likert(r.suspicion[c]);
    }
    if (p.failed()) return p.take_error();
    sink(std::move(r));
  }
  return std::nullopt;
}

std::optional<ParseError> read_student_csv(
    std::istream& in, std::vector<StudentRecord>& records) {
  std::vector<StudentRecord> parsed;
  if (auto err = for_each_student_csv_record(
          in, [&parsed](StudentRecord&& r) { parsed.push_back(r); })) {
    return err;
  }
  records = std::move(parsed);
  return std::nullopt;
}

}  // namespace fpq::survey
