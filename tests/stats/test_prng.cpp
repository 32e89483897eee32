// Determinism and distribution sanity for the PRNG layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <set>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/prng.hpp"

namespace st = fpq::stats;

namespace {

TEST(Prng, SplitMix64KnownSequence) {
  // Reference values for seed 0 (from the published splitmix64 algorithm).
  std::uint64_t s = 0;
  EXPECT_EQ(st::splitmix64_next(s), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(st::splitmix64_next(s), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(st::splitmix64_next(s), 0x06C45D188009454FULL);
}

TEST(Prng, Xoshiro256ppKnownSequence) {
  // Values captured before operator(), uniform01 and bernoulli became
  // header-inline: the inline path must reproduce the out-of-line one.
  st::Xoshiro256pp g(2024);
  EXPECT_EQ(g(), 0x8641253F8FED82D1ULL);
  EXPECT_EQ(g(), 0x4B7EEEC62AF66AF9ULL);
  EXPECT_EQ(g(), 0x3E595FE9CF746B2AULL);
  EXPECT_EQ(g(), 0x6BF1AA430346476CULL);

  st::Xoshiro256pp u(7);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st::uniform01(u)),
            0x3FAC583400555D20ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st::uniform01(u)),
            0x3FC607E46EFD274CULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(st::uniform01(u)),
            0x3FE6F66236761A8BULL);

  // p <= 0 and p >= 1 decide without comparing but still consume one
  // draw each, so the stream position never depends on p.
  st::Xoshiro256pp b(11);
  const double ps[] = {0.0, 1.0, 0.5, 0.25, 0.75, -1.0, 2.0, 0.5};
  const bool want[] = {false, true, false, false, true, false, true, true};
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    EXPECT_EQ(st::bernoulli(b, ps[i]), want[i]) << "draw " << i;
  }
  EXPECT_EQ(b(), 0xC9F9738D5BF501FAULL);  // the 9th output of seed 11
}

TEST(Prng, SameSeedSameStream) {
  st::Xoshiro256pp a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDifferentStreams) {
  st::Xoshiro256pp a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Prng, LowEntropySeedsStillMix) {
  // Consecutive small seeds must not produce correlated first outputs.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    st::Xoshiro256pp g(seed);
    firsts.insert(g());
  }
  EXPECT_EQ(firsts.size(), 256u);
}

TEST(Prng, JumpDecorrelates) {
  st::Xoshiro256pp a(7);
  st::Xoshiro256pp b(7);
  b.jump();
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Prng, SplitStreamsAreIndependentAndDeterministic) {
  st::Xoshiro256pp parent1(9), parent2(9);
  auto c1 = parent1.split(5);
  auto c2 = parent2.split(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());

  st::Xoshiro256pp parent3(9);
  auto other = parent3.split(6);
  EXPECT_NE(c1(), other());
}

TEST(Prng, Uniform01RangeAndMean) {
  st::Xoshiro256pp g(123);
  std::vector<double> xs(100000);
  for (auto& x : xs) {
    x = st::uniform01(g);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
  EXPECT_NEAR(st::mean(xs), 0.5, 0.01);
  EXPECT_NEAR(st::sample_stddev(xs), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Prng, UniformBelowIsInRangeAndRoughlyUniform) {
  st::Xoshiro256pp g(321);
  constexpr std::uint64_t kN = 7;
  std::vector<int> counts(kN, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = st::uniform_below(g, kN);
    ASSERT_LT(v, kN);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<double>(kN), 500);
  }
}

TEST(Prng, UniformBelowOneAlwaysZero) {
  st::Xoshiro256pp g(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(st::uniform_below(g, 1), 0u);
}

TEST(Prng, BernoulliMatchesProbability) {
  st::Xoshiro256pp g(99);
  for (double p : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    int hits = 0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) {
      if (st::bernoulli(g, p)) ++hits;
    }
    EXPECT_NEAR(hits / static_cast<double>(kDraws), p, 0.01) << "p=" << p;
  }
}

TEST(Prng, StandardNormalMoments) {
  st::Xoshiro256pp g(2718);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = st::standard_normal(g);
  EXPECT_NEAR(st::mean(xs), 0.0, 0.02);
  EXPECT_NEAR(st::sample_stddev(xs), 1.0, 0.02);
  // Roughly 68% within one sigma.
  const auto within =
      std::count_if(xs.begin(), xs.end(),
                    [](double x) { return std::fabs(x) < 1.0; });
  EXPECT_NEAR(within / static_cast<double>(xs.size()), 0.6827, 0.01);
}

TEST(Prng, NormalScalesAndShifts) {
  st::Xoshiro256pp g(577);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = st::normal(g, 10.0, 2.5);
  EXPECT_NEAR(st::mean(xs), 10.0, 0.05);
  EXPECT_NEAR(st::sample_stddev(xs), 2.5, 0.05);
}

TEST(Prng, UniformRange) {
  st::Xoshiro256pp g(31415);
  for (int i = 0; i < 10000; ++i) {
    const double x = st::uniform_range(g, -3.0, 7.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 7.0);
  }
}

}  // namespace
