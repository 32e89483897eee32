#include <gtest/gtest.h>

#include <string>

#include "paperdata/paperdata.hpp"
#include "survey/figures.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace rp = fpq::report;

namespace {

// An empty factor level folds to zero means, which no tolerance may pass
// as agreement: its claims are untestable, counted apart from OK.
TEST(FigureTable, EmptyLevelIsUntestable) {
  sv::FigureAccumulator acc;
  for (int i = 0; i < 20; ++i) acc.add(sv::SurveyRecord{});
  const auto filled = static_cast<std::size_t>(sv::area_group_of(0));
  const std::string quantity =
      "Fig17 " + std::string(pd::area_effect()[filled == 0 ? 1 : 0].label) +
      " (n=0)";
  bool found = false;
  for (const auto& block : acc.finish()) {
    for (const auto& claim : block.claims) {
      if (claim.quantity != quantity) continue;
      found = true;
      EXPECT_EQ(rp::verdict(claim), rp::Verdict::kUntestable);
      EXPECT_EQ(claim.untestable_n, 0u);
      const auto s = rp::summarize_comparison(block.claims);
      EXPECT_GE(s.untestable, 1u);
      EXPECT_NE(rp::render_comparison(block.title, block.claims)
                    .find("untestable (n=0)"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found) << quantity;
}

}  // namespace
