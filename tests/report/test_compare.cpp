#include <gtest/gtest.h>

#include <vector>

#include "report/compare.hpp"

namespace rp = fpq::report;

namespace {

TEST(Compare, SummaryCountsWithinTolerance) {
  const std::vector<rp::ComparisonRow> rows{
      {"mean score", 8.5, 8.6, 0.5},
      {"chance", 7.5, 7.5, 0.1},
      {"way off", 1.0, 3.0, 0.5},
  };
  const auto s = rp::summarize_comparison(rows);
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.within_tolerance, 2u);
  EXPECT_FALSE(s.all_within());
  EXPECT_DOUBLE_EQ(s.max_abs_deviation, 2.0);
}

TEST(Compare, AllWithin) {
  const std::vector<rp::ComparisonRow> rows{{"x", 1.0, 1.0, 0.0}};
  EXPECT_TRUE(rp::summarize_comparison(rows).all_within());
}

TEST(Compare, RenderMarksVerdicts) {
  const std::vector<rp::ComparisonRow> rows{
      {"good", 10.0, 10.1, 0.5},
      {"bad", 10.0, 15.0, 0.5},
  };
  const std::string out = rp::render_comparison("Figure 12", rows, 1);
  EXPECT_NE(out.find("Figure 12"), std::string::npos);
  EXPECT_NE(out.find("OK"), std::string::npos);
  EXPECT_NE(out.find("DEVIATES"), std::string::npos);
  EXPECT_NE(out.find("summary: 1/2 within tolerance"), std::string::npos);
}

TEST(Compare, ShapeAndUntestableRows) {
  std::vector<rp::ComparisonRow> rows(3);
  rows[0] = {"holds", 2.0, 9.0, 0.0};
  rows[0].holds = true;
  rows[1] = {"fails", 2.0, 2.0, 1.0};
  rows[1].holds = false;
  rows[2] = {"tiny level", 8.0, 8.0, 1.0};
  rows[2].untestable_n = 3;
  EXPECT_EQ(rp::verdict(rows[0]), rp::Verdict::kOk);
  EXPECT_EQ(rp::verdict(rows[1]), rp::Verdict::kDeviates);
  EXPECT_EQ(rp::verdict(rows[2]), rp::Verdict::kUntestable);
  const auto s = rp::summarize_comparison(rows);
  EXPECT_EQ(s.within_tolerance, 1u);
  EXPECT_EQ(s.untestable, 1u);
  EXPECT_FALSE(s.all_within());
  EXPECT_DOUBLE_EQ(s.max_abs_deviation, 0.0);  // shape rows have no |dev|
  const std::string out = rp::render_comparison("Shapes", rows, 1);
  EXPECT_NE(out.find("untestable (n=3)"), std::string::npos);
  EXPECT_NE(out.find("summary: 1/2 within tolerance, 1 untestable"),
            std::string::npos);
}

TEST(Compare, EmptyBlockRenders) {
  const std::vector<rp::ComparisonRow> rows;
  const std::string out = rp::render_comparison("Empty", rows, 2);
  EXPECT_NE(out.find("summary: 0/0"), std::string::npos);
}

}  // namespace
