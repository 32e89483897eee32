// The record data model's collapse mappings (Figure 2 -> area groups,
// Figure 8 -> ordered size bins, ...), which Figures 16-21 depend on.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "paperdata/paperdata.hpp"
#include "survey/csv_io.hpp"
#include "survey/record.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;

namespace {

TEST(Record, AreaGroupCollapse) {
  EXPECT_EQ(sv::area_group_of(0), sv::AreaGroup::kCS);
  EXPECT_EQ(sv::area_group_of(1), sv::AreaGroup::kPhysSci);
  EXPECT_EQ(sv::area_group_of(2), sv::AreaGroup::kEng);
  EXPECT_EQ(sv::area_group_of(3), sv::AreaGroup::kCE);
  EXPECT_EQ(sv::area_group_of(4), sv::AreaGroup::kMath);
  EXPECT_EQ(sv::area_group_of(5), sv::AreaGroup::kEE);
  EXPECT_EQ(sv::area_group_of(8), sv::AreaGroup::kCS) << "CS&Math";
  EXPECT_EQ(sv::area_group_of(9), sv::AreaGroup::kCE) << "CS&CE";
  EXPECT_EQ(sv::area_group_of(12), sv::AreaGroup::kEng) << "Robotics";
  EXPECT_EQ(sv::area_group_of(6), sv::AreaGroup::kOther) << "Economics";
  EXPECT_EQ(sv::area_group_of(18), sv::AreaGroup::kOther) << "Unreported";
}

TEST(Record, AreaGroupTotalsMatchFactorTable) {
  // Summing Figure 2 counts through the collapse must reproduce the
  // per-group n in paperdata::area_effect().
  std::array<std::size_t, sv::kAreaGroupCount> totals{};
  const auto areas = pd::areas();
  for (std::size_t i = 0; i < areas.size(); ++i) {
    totals[static_cast<std::size_t>(sv::area_group_of(i))] += areas[i].n;
  }
  const auto targets = pd::area_effect();
  ASSERT_EQ(targets.size(), sv::kAreaGroupCount);
  for (std::size_t gidx = 0; gidx < sv::kAreaGroupCount; ++gidx) {
    EXPECT_EQ(totals[gidx], targets[gidx].n) << targets[gidx].label;
  }
}

TEST(Record, ContributedSizeBins) {
  EXPECT_EQ(sv::contributed_size_bin(2), 0u);  // 100-1K
  EXPECT_EQ(sv::contributed_size_bin(0), 1u);  // 1K-10K
  EXPECT_EQ(sv::contributed_size_bin(1), 2u);  // 10K-100K
  EXPECT_EQ(sv::contributed_size_bin(3), 3u);  // 100K-1M
  EXPECT_EQ(sv::contributed_size_bin(4), 4u);  // >1M
  EXPECT_EQ(sv::contributed_size_bin(5), sv::kNoSizeBin);  // <100
  EXPECT_EQ(sv::contributed_size_bin(6), sv::kNoSizeBin);  // Not Reported
}

TEST(Record, SizeBinTotalsMatchFactorTable) {
  const auto sizes = pd::contributed_codebase_sizes();
  const auto targets = pd::contributed_size_effect();
  std::array<std::size_t, sv::kSizeBinCount> totals{};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto bin = sv::contributed_size_bin(i);
    if (bin != sv::kNoSizeBin) totals[bin] += sizes[i].n;
  }
  for (std::size_t b = 0; b < sv::kSizeBinCount; ++b) {
    EXPECT_EQ(totals[b], targets[b].n) << targets[b].label;
  }
}

TEST(Record, RoleAndTrainingMappings) {
  EXPECT_EQ(sv::role_index(1), 0u);  // main-role SWE -> first chart slot
  EXPECT_EQ(sv::role_index(0), 2u);  // dev-support
  EXPECT_EQ(sv::role_index(4), sv::kNoRole);

  EXPECT_EQ(sv::training_index(1), 0u);  // None first
  EXPECT_EQ(sv::training_index(0), 1u);  // Lectures
  EXPECT_EQ(sv::training_index(2), 2u);  // Weeks
  EXPECT_EQ(sv::training_index(3), 3u);  // Courses
  EXPECT_EQ(sv::training_index(4), sv::kNoTraining);
}

TEST(Record, RoleTotalsMatchFactorTable) {
  const auto roles = pd::dev_roles();
  const auto targets = pd::role_effect();
  std::array<std::size_t, sv::kRoleCount> totals{};
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const auto idx = sv::role_index(i);
    if (idx != sv::kNoRole) totals[idx] += roles[i].n;
  }
  for (std::size_t r = 0; r < sv::kRoleCount; ++r) {
    EXPECT_EQ(totals[r], targets[r].n) << targets[r].label;
  }
}

TEST(Record, DefaultRecordIsSane) {
  const sv::SurveyRecord r;
  for (auto a : r.core.answers) EXPECT_EQ(a, fpq::quiz::Answer::kUnanswered);
  for (int s : r.suspicion) EXPECT_EQ(s, 1);
}

TEST(IndexSet, IteratesAscendingWhateverTheInsertOrder) {
  const sv::IndexSet set{31, 4, 0, 17};
  EXPECT_EQ(std::vector<std::size_t>(set.begin(), set.end()),
            (std::vector<std::size_t>{0, 4, 17, 31}));
  EXPECT_EQ(set.size(), 4u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set, sv::IndexSet::from_mask((1U << 31) | (1U << 17) | 0x11U));
}

TEST(IndexSet, EmptySizeAndEquality) {
  const sv::IndexSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_EQ(none, sv::IndexSet{});

  sv::IndexSet grown;
  grown.insert(3);
  grown.insert(3);  // a set: inserting twice keeps one copy
  EXPECT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown, (sv::IndexSet{3}));
  EXPECT_NE(grown, (sv::IndexSet{2}));
  EXPECT_NE(grown, (sv::IndexSet{2, 3}));
}

TEST(IndexSet, EveryMultiSelectTableFits) {
  EXPECT_LE(pd::informal_training().size(), sv::IndexSet::kCapacity);
  EXPECT_LE(pd::fp_languages().size(), sv::IndexSet::kCapacity);
  EXPECT_LE(pd::arb_prec_languages().size(), sv::IndexSet::kCapacity);
}

TEST(IndexSet, CsvRoundTrip) {
  // Every subset of the Figure 7 rows (empty and full included) is
  // written as an ascending list and read back as the same set.
  const std::size_t rows = pd::arb_prec_languages().size();
  ASSERT_LE(rows, 12u);  // keeps the 2^rows records small
  std::vector<sv::SurveyRecord> records(std::size_t{1} << rows);
  for (std::size_t m = 0; m < records.size(); ++m) {
    records[m].background.arb_prec_languages =
        sv::IndexSet::from_mask(static_cast<std::uint32_t>(m));
  }
  std::ostringstream out;
  sv::write_csv(out, records);
  std::istringstream in(out.str());
  std::vector<sv::SurveyRecord> parsed;
  const auto err = sv::read_csv(in, parsed);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t m = 0; m < records.size(); ++m) {
    EXPECT_EQ(parsed[m].background.arb_prec_languages,
              records[m].background.arb_prec_languages)
        << "mask " << m;
  }
}

}  // namespace
