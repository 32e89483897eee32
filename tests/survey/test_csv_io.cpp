#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "respondent/population.hpp"
#include "survey/csv_io.hpp"

namespace sv = fpq::survey;

namespace {

sv::SurveyRecord sample_record() {
  sv::SurveyRecord r;
  r.respondent_id = 42;
  r.background.position = 1;
  r.background.area = 3;
  r.background.formal_training = 2;
  r.background.informal_training = {0, 2};
  r.background.dev_role = 0;
  r.background.fp_languages = {0, 1, 2};
  r.background.arb_prec_languages = {};
  r.background.contributed_size = 4;
  r.background.contributed_extent = 1;
  r.background.involved_size = 2;
  r.background.involved_extent = 0;
  r.core[fpq::quiz::CoreQuestionId::kIdentity] = fpq::quiz::Answer::kFalse;
  r.core[fpq::quiz::CoreQuestionId::kSquare] = fpq::quiz::Answer::kDontKnow;
  r.opt.tf_answers = {fpq::quiz::Answer::kTrue, fpq::quiz::Answer::kDontKnow,
                      fpq::quiz::Answer::kTrue};
  r.opt.level_choice = 2;
  r.suspicion = {4, 2, 1, 5, 2};
  return r;
}

TEST(CsvIo, RoundTripsOneRecord) {
  const sv::SurveyRecord original = sample_record();
  std::ostringstream out;
  sv::write_csv(out, std::vector<sv::SurveyRecord>{original});

  std::istringstream in(out.str());
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  ASSERT_EQ(parsed.size(), 1u);
  const auto& r = parsed[0];
  EXPECT_EQ(r.respondent_id, 42u);
  EXPECT_EQ(r.background.area, 3u);
  EXPECT_EQ(r.background.informal_training, (sv::IndexSet{0, 2}));
  EXPECT_EQ(r.background.fp_languages, (sv::IndexSet{0, 1, 2}));
  EXPECT_TRUE(r.background.arb_prec_languages.empty());
  EXPECT_EQ(r.core[fpq::quiz::CoreQuestionId::kIdentity],
            fpq::quiz::Answer::kFalse);
  EXPECT_EQ(r.core[fpq::quiz::CoreQuestionId::kSquare],
            fpq::quiz::Answer::kDontKnow);
  EXPECT_EQ(r.core[fpq::quiz::CoreQuestionId::kOrdering],
            fpq::quiz::Answer::kUnanswered);
  EXPECT_EQ(r.opt.level_choice, 2u);
  EXPECT_EQ(r.suspicion, (std::array<int, 5>{4, 2, 1, 5, 2}));
}

TEST(CsvIo, RoundTripsAFullCohort) {
  const auto cohort = fpq::respondent::generate_main_cohort(7, 199);
  std::ostringstream out;
  sv::write_csv(out, cohort);

  std::istringstream in(out.str());
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  ASSERT_EQ(parsed.size(), cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    EXPECT_EQ(parsed[i].respondent_id, cohort[i].respondent_id);
    EXPECT_EQ(parsed[i].background.area, cohort[i].background.area);
    EXPECT_EQ(parsed[i].background.informal_training,
              cohort[i].background.informal_training);
    EXPECT_EQ(parsed[i].background.fp_languages,
              cohort[i].background.fp_languages);
    EXPECT_EQ(parsed[i].background.arb_prec_languages,
              cohort[i].background.arb_prec_languages);
    EXPECT_EQ(parsed[i].core.answers, cohort[i].core.answers);
    EXPECT_EQ(parsed[i].opt.tf_answers, cohort[i].opt.tf_answers);
    EXPECT_EQ(parsed[i].opt.level_choice, cohort[i].opt.level_choice);
    EXPECT_EQ(parsed[i].suspicion, cohort[i].suspicion);
  }
}

TEST(CsvIo, LevelSentinelsRoundTrip) {
  sv::SurveyRecord r = sample_record();
  r.opt.level_choice = fpq::quiz::kOptLevelDontKnow;
  std::ostringstream out;
  sv::write_csv(out, std::vector<sv::SurveyRecord>{r});
  std::istringstream in(out.str());
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(parsed[0].opt.level_choice, fpq::quiz::kOptLevelDontKnow);
}

TEST(CsvIo, RejectsBadHeader) {
  std::istringstream in("id,wrong\n");
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->to_string().find("header"), std::string::npos);
}

TEST(CsvIo, RejectsWrongFieldCount) {
  std::istringstream in(sv::csv_header() + "\n1,2,3\n");
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->to_string().find("line 2"), std::string::npos);
}

TEST(CsvIo, RejectsInvalidSuspicionLevel) {
  const sv::SurveyRecord r = sample_record();
  std::ostringstream out;
  sv::write_csv(out, std::vector<sv::SurveyRecord>{r});
  std::string text = out.str();
  // Break the last suspicion value.
  text.replace(text.rfind(",2"), 2, ",9");
  std::istringstream in(text);
  std::vector<sv::SurveyRecord> parsed;
  EXPECT_TRUE(sv::read_csv(in, parsed).has_value());
}

TEST(CsvIo, StudentCohortRoundTrips) {
  const auto students = fpq::respondent::generate_student_cohort(9, 52);
  std::ostringstream out;
  sv::write_student_csv(out, students);
  std::istringstream in(out.str());
  std::vector<sv::StudentRecord> parsed;
  const auto err = sv::read_student_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  ASSERT_EQ(parsed.size(), students.size());
  for (std::size_t i = 0; i < students.size(); ++i) {
    EXPECT_EQ(parsed[i].respondent_id, students[i].respondent_id);
    EXPECT_EQ(parsed[i].suspicion, students[i].suspicion);
  }
}

TEST(CsvIo, StudentCsvRejectsBadLevel) {
  std::istringstream in(sv::student_csv_header() + "\n1,1,2,3,4,9\n");
  std::vector<sv::StudentRecord> parsed;
  EXPECT_TRUE(sv::read_student_csv(in, parsed).has_value());
}

TEST(CsvIo, EmptyInputRejected) {
  std::istringstream in("");
  std::vector<sv::SurveyRecord> parsed;
  EXPECT_TRUE(sv::read_csv(in, parsed).has_value());
}

// -- Corrupt-corpus tests: the structured ParseError API -------------------

// One valid header+row CSV document to mutate.
std::string valid_csv_text() {
  std::ostringstream out;
  sv::write_csv(out, std::vector<sv::SurveyRecord>{sample_record()});
  return out.str();
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t sep = line.find(',', start);
    fields.push_back(line.substr(
        start, sep == std::string::npos ? sep : sep - start));
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  return fields;
}

// Replaces the named column of the first data row with `value`.
std::string corrupt_field(const std::string& column,
                          const std::string& value) {
  const std::string text = valid_csv_text();
  const std::size_t header_end = text.find('\n');
  const std::string header = text.substr(0, header_end);
  std::string row = text.substr(header_end + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();

  const std::vector<std::string> names = split_csv(header);
  std::vector<std::string> fields = split_csv(row);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == column) fields[i] = value;
  }
  std::string out = header + "\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += fields[i];
  }
  return out + "\n";
}

std::optional<sv::ParseError> parse_of(const std::string& text) {
  std::istringstream in(text);
  std::vector<sv::SurveyRecord> parsed;
  return sv::read_csv(in, parsed);
}

TEST(CsvIoCorrupt, TruncatedRowNamesLineNotField) {
  const std::string text = valid_csv_text();
  // Drop everything after the 5th comma of the data row.
  const std::size_t header_end = text.find('\n');
  std::size_t cut = header_end + 1;
  for (int commas = 0; commas < 5; ++commas) {
    cut = text.find(',', cut + 1);
  }
  const auto err = parse_of(text.substr(0, cut) + "\n");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 2u);
  EXPECT_TRUE(err->field.empty());
  EXPECT_NE(err->message.find("truncated"), std::string::npos)
      << err->message;
  EXPECT_NE(err->to_string().find("line 2"), std::string::npos);
}

TEST(CsvIoCorrupt, OutOfRangeEnumCodeNamesTheColumn) {
  const auto err = parse_of(corrupt_field("area", "99"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 2u);
  EXPECT_EQ(err->field, "area");
  EXPECT_NE(err->message.find("out of range"), std::string::npos)
      << err->message;
}

TEST(CsvIoCorrupt, OutOfRangeMultiSelectIndexNamesTheColumn) {
  const auto err = parse_of(corrupt_field("fp_languages", "0;99"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "fp_languages");
  EXPECT_NE(err->message.find("out of range"), std::string::npos);
}

// A multi-select field is a set: write_csv lists each index once, in
// ascending order, and the reader accepts nothing else.
TEST(CsvIoCorrupt, OutOfOrderMultiSelectListNamesTheColumn) {
  const auto err = parse_of(corrupt_field("fp_languages", "2;0"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 2u);
  EXPECT_EQ(err->field, "fp_languages");
  EXPECT_NE(err->message.find("strictly ascending"), std::string::npos)
      << err->message;
}

TEST(CsvIoCorrupt, DuplicateMultiSelectIndexNamesTheColumn) {
  const auto err = parse_of(corrupt_field("informal_training", "0;0"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "informal_training");
  EXPECT_NE(err->message.find("strictly ascending"), std::string::npos)
      << err->message;
}

TEST(CsvIoCorrupt, NonNumericFieldNamesTheColumn) {
  const auto err = parse_of(corrupt_field("position", "senior"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "position");

  const auto id_err = parse_of(corrupt_field("id", "4x2"));
  ASSERT_TRUE(id_err.has_value());
  EXPECT_EQ(id_err->field, "id");
}

TEST(CsvIoCorrupt, BadAnswerCharNamesTheQuestionColumn) {
  const auto err = parse_of(corrupt_field("core_q3", "X"));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "core_q3");
  EXPECT_NE(err->message.find("T, F, D or U"), std::string::npos);
}

TEST(CsvIoCorrupt, BadLevelAndLikertNameTheirColumns) {
  const auto level = parse_of(corrupt_field("opt_level", "17"));
  ASSERT_TRUE(level.has_value());
  EXPECT_EQ(level->field, "opt_level");

  const auto likert = parse_of(corrupt_field("suspicion_3", "0"));
  ASSERT_TRUE(likert.has_value());
  EXPECT_EQ(likert->field, "suspicion_3");
  EXPECT_NE(likert->message.find("1..5"), std::string::npos);
}

TEST(CsvIoCorrupt, ErrorOnLaterRowReportsItsLineNumber) {
  const std::string text = valid_csv_text();
  const std::size_t header_end = text.find('\n');
  const std::string good_row =
      text.substr(header_end + 1, text.size() - header_end - 2);
  const std::string bad =
      corrupt_field("dev_role", "99");  // header + corrupt row
  // Good row first (line 2), corrupt row second (line 3).
  const std::string bad_row = bad.substr(bad.find('\n') + 1);
  const auto err =
      parse_of(text.substr(0, header_end + 1) + good_row + "\n" + bad_row);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 3u);
  EXPECT_EQ(err->field, "dev_role");
}

TEST(CsvIoCorrupt, FailedParseLeavesRecordsUntouched) {
  std::vector<sv::SurveyRecord> parsed(3);
  std::istringstream in(corrupt_field("area", "99"));
  ASSERT_TRUE(sv::read_csv(in, parsed).has_value());
  EXPECT_EQ(parsed.size(), 3u) << "a failed read must not clobber records";
}

// ParseError::to_string() flattens the structured error into one line
// that names both the line and the column.
TEST(CsvIoCorrupt, LegacyApiFlattensTheStructuredError) {
  const auto err = parse_of(corrupt_field("area", "99"));
  ASSERT_TRUE(err.has_value());
  const std::string error = err->to_string();
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("area"), std::string::npos) << error;
}

TEST(CsvIoCorrupt, ValidCorpusStillParsesAfterHardening) {
  // Boundary values: the largest valid index of every enum table must
  // still be accepted (the range checks are exclusive upper bounds).
  const auto err = parse_of(valid_csv_text());
  EXPECT_FALSE(err.has_value()) << err->to_string();
}

TEST(CsvIoCorrupt, StudentReaderReportsStructuredErrors) {
  std::istringstream in(sv::student_csv_header() + "\n1,1,2,3,4,9\n");
  std::vector<sv::StudentRecord> parsed;
  const auto err = sv::read_student_csv(in, parsed);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 2u);
  EXPECT_EQ(err->field, "suspicion_5");

  std::istringstream truncated(sv::student_csv_header() + "\n1,1,2\n");
  const auto terr = sv::read_student_csv(truncated, parsed);
  ASSERT_TRUE(terr.has_value());
  EXPECT_EQ(terr->line, 2u);
  EXPECT_TRUE(terr->field.empty());
}

// -- Streaming reader: per-record callback, no vector ----------------------

TEST(CsvIoStreaming, DeliversRecordsAsTheyParse) {
  const auto cohort = fpq::respondent::generate_main_cohort(15, 20);
  std::ostringstream out;
  sv::write_csv(out, cohort);

  std::istringstream in(out.str());
  std::size_t delivered = 0;
  const auto err =
      sv::for_each_csv_record(in, [&](sv::SurveyRecord&& r) {
        EXPECT_EQ(r.respondent_id, cohort[delivered].respondent_id);
        EXPECT_EQ(r.core.answers, cohort[delivered].core.answers);
        ++delivered;
      });
  EXPECT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(delivered, cohort.size());
}

TEST(CsvIoStreaming, StopsAtFirstBadRowKeepingEarlierDeliveries) {
  // Row 2 is valid, row 3 is corrupt: the callback must see exactly the
  // valid prefix and the error must name the bad line.
  const std::string good = valid_csv_text();
  const std::size_t header_end = good.find('\n');
  const std::string bad_doc = corrupt_field("area", "99");
  const std::string bad_row = bad_doc.substr(bad_doc.find('\n') + 1);
  std::istringstream in(good + bad_row);

  std::size_t delivered = 0;
  const auto err = sv::for_each_csv_record(
      in, [&](sv::SurveyRecord&&) { ++delivered; });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->line, 3u);
  EXPECT_EQ(err->field, "area");
  EXPECT_EQ(delivered, 1u) << "the valid prefix stays delivered";
  (void)header_end;
}

TEST(CsvIoStreaming, FeedsAnAccumulatorWithoutAVector) {
  // The intended composition: CSV stream -> accumulator, no record vector.
  const auto cohort = fpq::respondent::generate_main_cohort(15, 25);
  std::ostringstream out;
  sv::write_csv(out, cohort);

  std::size_t suspicious = 0;
  std::istringstream in(out.str());
  const auto err =
      sv::for_each_csv_record(in, [&](sv::SurveyRecord&& r) {
        if (r.suspicion[0] >= 4) ++suspicious;
      });
  EXPECT_FALSE(err.has_value());
  std::size_t expected = 0;
  for (const auto& r : cohort) {
    if (r.suspicion[0] >= 4) ++expected;
  }
  EXPECT_EQ(suspicious, expected);
}

TEST(CsvIoStreaming, StudentVariantStreamsAndReportsErrors) {
  const auto students = fpq::respondent::generate_student_cohort(15, 12);
  std::ostringstream out;
  sv::write_student_csv(out, students);

  std::istringstream in(out.str());
  std::size_t delivered = 0;
  const auto ok = sv::for_each_student_csv_record(
      in, [&](sv::StudentRecord&& r) {
        EXPECT_EQ(r.suspicion, students[delivered].suspicion);
        ++delivered;
      });
  EXPECT_FALSE(ok.has_value());
  EXPECT_EQ(delivered, students.size());

  std::istringstream bad(sv::student_csv_header() + "\n1,1,2,3,4,9\n");
  std::size_t bad_delivered = 0;
  const auto err = sv::for_each_student_csv_record(
      bad, [&](sv::StudentRecord&&) { ++bad_delivered; });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->field, "suspicion_5");
  EXPECT_EQ(bad_delivered, 0u);
}

TEST(CsvIoStreaming, BadHeaderDeliversNothing) {
  std::istringstream in("id,wrong\n");
  std::size_t delivered = 0;
  const auto err = sv::for_each_csv_record(
      in, [&](sv::SurveyRecord&&) { ++delivered; });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(delivered, 0u);
}

}  // namespace
