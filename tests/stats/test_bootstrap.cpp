#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "stats/prng.hpp"

namespace st = fpq::stats;

namespace {

TEST(Bootstrap, MeanIntervalContainsTruthForNormalData) {
  st::Xoshiro256pp gen(31);
  std::vector<double> data(500);
  for (auto& x : data) x = st::normal(gen, 5.0, 2.0);
  st::Xoshiro256pp boot(32);
  const auto ci = st::bootstrap_mean(data, 2000, 0.95, boot);
  EXPECT_NEAR(ci.estimate, 5.0, 0.3);
  EXPECT_LT(ci.lower, ci.estimate);
  EXPECT_GT(ci.upper, ci.estimate);
  EXPECT_LT(ci.lower, 5.0);
  EXPECT_GT(ci.upper, 5.0);
  EXPECT_EQ(ci.confidence, 0.95);
}

TEST(Bootstrap, IntervalNarrowsWithSampleSize) {
  st::Xoshiro256pp gen(41);
  std::vector<double> small(50), large(5000);
  for (auto& x : small) x = st::normal(gen, 0.0, 1.0);
  for (auto& x : large) x = st::normal(gen, 0.0, 1.0);
  st::Xoshiro256pp b1(42), b2(43);
  const auto ci_small = st::bootstrap_mean(small, 1000, 0.95, b1);
  const auto ci_large = st::bootstrap_mean(large, 1000, 0.95, b2);
  EXPECT_LT(ci_large.upper - ci_large.lower,
            ci_small.upper - ci_small.lower);
}

TEST(Bootstrap, DegenerateDataGivesPointInterval) {
  const std::vector<double> data(100, 3.25);
  st::Xoshiro256pp boot(44);
  const auto ci = st::bootstrap_mean(data, 500, 0.9, boot);
  EXPECT_EQ(ci.estimate, 3.25);
  EXPECT_EQ(ci.lower, 3.25);
  EXPECT_EQ(ci.upper, 3.25);
}

TEST(Bootstrap, ArbitraryStatistic) {
  st::Xoshiro256pp gen(51);
  std::vector<double> data(400);
  for (auto& x : data) x = st::uniform_range(gen, 0.0, 10.0);
  st::Xoshiro256pp boot(52);
  const auto ci = st::bootstrap_interval(
      data, [](std::span<const double> xs) { return st::median(xs); }, 1000,
      0.95, boot);
  EXPECT_NEAR(ci.estimate, 5.0, 0.8);
  EXPECT_LE(ci.lower, ci.estimate);
  EXPECT_GE(ci.upper, ci.estimate);
}

TEST(Bootstrap, DeterministicUnderSeed) {
  st::Xoshiro256pp gen(61);
  std::vector<double> data(100);
  for (auto& x : data) x = st::standard_normal(gen);
  st::Xoshiro256pp b1(62), b2(62);
  const auto c1 = st::bootstrap_mean(data, 500, 0.95, b1);
  const auto c2 = st::bootstrap_mean(data, 500, 0.95, b2);
  EXPECT_EQ(c1.lower, c2.lower);
  EXPECT_EQ(c1.upper, c2.upper);
}

// The streamed (chunk) bootstrap and the classic one share their point
// estimate exactly on integer scores, whatever the chunking.
TEST(Bootstrap, ChunkEstimateEqualsResampledEstimate) {
  st::Xoshiro256pp gen(71);
  std::vector<double> scores(199);
  for (auto& x : scores) x = static_cast<double>(st::uniform_below(gen, 16));
  std::vector<st::ChunkMeanStat> chunks;
  for (std::size_t begin = 0; begin < scores.size(); begin += 50) {
    st::ChunkStatAccumulator acc;
    for (std::size_t i = begin; i < std::min(begin + 50, scores.size()); ++i) {
      acc.add(scores[i]);
    }
    const auto closed = acc.finish();
    chunks.insert(chunks.end(), closed.begin(), closed.end());
  }
  ASSERT_EQ(chunks.size(), 4u);
  st::Xoshiro256pp boot(0xB007);
  fpq::parallel::ThreadPool pool(1);
  EXPECT_EQ(st::bootstrap_mean_from_chunks(chunks, 4000, 0.95, 0xB007, pool)
                .estimate,
            st::bootstrap_mean(scores, 4000, 0.95, boot).estimate);
}

}  // namespace
