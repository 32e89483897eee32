// Algebra of the mergeable figure accumulators (survey/accumulators.hpp)
// and the streaming shard driver they run on (parallel/stream.hpp):
//
//   * identity element — a fresh accumulator finishes to zeros, never NaN,
//     and merging one in (on either side) changes nothing;
//   * merge associativity in practice — adversarial chunk splits (empty
//     chunks, single-record chunks, lopsided splits) all finish
//     bit-identically to the serial add-one-at-a-time fold;
//   * sharded bit-identity — accumulate_span at 1/2/4/8 threads equals the
//     serial fold exactly (this file carries the `parallel` ctest label so
//     the contract also runs under TSan);
//   * configuration safety — merging accumulators built over different
//     keys/tables/factors throws instead of silently mixing tallies;
//   * generator streaming — stream_accumulate over CohortGenerator shards
//     equals folding the materialized generate_main_cohort vector.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "parallel/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "respondent/population.hpp"
#include "stats/bootstrap.hpp"
#include "survey/accumulators.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace quiz = fpq::quiz;
namespace par = fpq::parallel;

namespace {

// An odd-sized cohort so every chunk partition below is uneven somewhere.
const std::vector<sv::SurveyRecord>& cohort() {
  static const auto records =
      fpq::respondent::generate_main_cohort(123, 257);
  return records;
}

std::size_t position_of(const sv::SurveyRecord& r) {
  return r.background.position;
}

sv::IndexSet languages_of(const sv::SurveyRecord& r) {
  return r.background.fp_languages;
}

// -- exact result comparison ------------------------------------------------

void expect_rows_eq(const std::vector<sv::TableRow>& a,
                    const std::vector<sv::TableRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].percent, b[i].percent) << a[i].label;
  }
}

void expect_tally_eq(const sv::AverageTally& a, const sv::AverageTally& b) {
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.incorrect, b.incorrect);
  EXPECT_EQ(a.dont_know, b.dont_know);
  EXPECT_EQ(a.unanswered, b.unanswered);
}

void expect_hist_eq(const fpq::stats::IntHistogram& a,
                    const fpq::stats::IntHistogram& b) {
  ASSERT_EQ(a.lo(), b.lo());
  ASSERT_EQ(a.hi(), b.hi());
  EXPECT_EQ(a.total(), b.total());
  for (int v = a.lo(); v <= a.hi(); ++v) EXPECT_EQ(a.count(v), b.count(v));
}

void expect_breakdown_eq(const std::vector<sv::BreakdownRow>& a,
                         const std::vector<sv::BreakdownRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].pct_correct, b[i].pct_correct) << a[i].label;
    EXPECT_EQ(a[i].pct_incorrect, b[i].pct_incorrect) << a[i].label;
    EXPECT_EQ(a[i].pct_dont_know, b[i].pct_dont_know) << a[i].label;
    EXPECT_EQ(a[i].pct_unanswered, b[i].pct_unanswered) << a[i].label;
  }
}

void expect_factors_eq(const std::vector<sv::FactorLevelResult>& a,
                       const std::vector<sv::FactorLevelResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].n, b[i].n) << a[i].label;
    expect_tally_eq(a[i].core, b[i].core);
    expect_tally_eq(a[i].opt, b[i].opt);
  }
}

void expect_dists_eq(const sv::SuspicionDistributions& a,
                     const sv::SuspicionDistributions& b) {
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto pa = a[c].proportions();
    const auto pb = b[c].proportions();
    for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  }
}

// Serial fold over a sub-span.
template <typename Acc>
Acc fold(const Acc& proto, std::size_t begin, std::size_t end) {
  Acc acc = proto;
  for (std::size_t i = begin; i < end; ++i) acc.add(cohort()[i]);
  return acc;
}

// -- identity element -------------------------------------------------------

TEST(AccumulatorIdentity, EmptyFinishIsZerosNotNaN) {
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  const auto avg = sv::AverageTallyAccumulator::core(core_key).finish();
  EXPECT_EQ(avg.correct, 0.0);
  EXPECT_EQ(avg.unanswered, 0.0);

  const auto rows =
      sv::FrequencyAccumulator(pd::positions(), &position_of).finish();
  ASSERT_EQ(rows.size(), pd::positions().size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.n, 0u);
    EXPECT_EQ(row.percent, 0.0) << row.label;  // a NaN would fail here
  }

  const auto breakdown = sv::BreakdownAccumulator::opt(opt_key).finish();
  for (const auto& row : breakdown) {
    EXPECT_EQ(row.pct_correct, 0.0) << row.label;
    EXPECT_EQ(row.pct_unanswered, 0.0) << row.label;
  }

  const auto levels =
      sv::FactorLevelAccumulator::by_role(core_key, opt_key).finish();
  for (const auto& level : levels) {
    EXPECT_EQ(level.n, 0u);
    EXPECT_EQ(level.core.correct, 0.0) << level.label;
  }

  EXPECT_EQ(sv::ScoreHistogramAccumulator(core_key).finish().total(), 0u);
  EXPECT_EQ(sv::SuspicionAccumulator{}.respondents(), 0u);
}

TEST(AccumulatorIdentity, MergingEmptyOnEitherSideIsANoOp) {
  const auto core_key = quiz::standard_core_truths();
  const auto make = [&] {
    return sv::AverageTallyAccumulator::core(core_key);
  };

  auto populated = fold(make(), 0, 100);
  const auto expected = populated.finish();

  auto right = fold(make(), 0, 100);
  right.merge(make());  // empty on the right
  expect_tally_eq(right.finish(), expected);

  auto left = make();  // empty on the left
  left.merge(fold(make(), 0, 100));
  expect_tally_eq(left.finish(), expected);

  auto both = make();
  both.merge(make());
  expect_tally_eq(both.finish(), sv::AverageTally{});
}

// -- adversarial chunk splits ----------------------------------------------

// Merges the chunks defined by `cuts` (split points into cohort()) and
// expects the result to equal the serial fold. Exercises empty chunks,
// single-record chunks, and lopsided splits for one accumulator type.
template <typename MakeAcc, typename ExpectEq>
void check_splits(const MakeAcc& make, const ExpectEq& expect_eq) {
  const std::size_t n = cohort().size();
  const auto serial = fold(make(), 0, n).finish();

  const std::vector<std::vector<std::size_t>> split_sets = {
      {0, n},                       // one chunk
      {0, 0, n, n},                 // empty first and last chunks
      {0, 1, 2, 3, n},              // single-record chunks up front
      {0, n / 2, n / 2, n},         // empty middle chunk
      {0, n - 1, n},                // lopsided
  };
  for (const auto& cuts : split_sets) {
    auto merged = make();
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      merged.merge(fold(make(), cuts[i], cuts[i + 1]));
    }
    expect_eq(merged.finish(), serial);
  }
}

TEST(AccumulatorSplits, AllTypesSurviveAdversarialChunking) {
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  check_splits(
      [&] { return sv::FrequencyAccumulator(pd::positions(), &position_of); },
      [](const auto& a, const auto& b) { expect_rows_eq(a, b); });
  check_splits(
      [&] {
        return sv::MultiSelectAccumulator(pd::fp_languages(), &languages_of);
      },
      [](const auto& a, const auto& b) { expect_rows_eq(a, b); });
  check_splits(
      [&] { return sv::AverageTallyAccumulator::core(core_key); },
      [](const auto& a, const auto& b) { expect_tally_eq(a, b); });
  check_splits(
      [&] { return sv::AverageTallyAccumulator::opt_tf(opt_key); },
      [](const auto& a, const auto& b) { expect_tally_eq(a, b); });
  check_splits(
      [&] { return sv::ScoreHistogramAccumulator(core_key); },
      [](const auto& a, const auto& b) { expect_hist_eq(a, b); });
  check_splits(
      [&] { return sv::BreakdownAccumulator::core(core_key); },
      [](const auto& a, const auto& b) { expect_breakdown_eq(a, b); });
  check_splits(
      [&] {
        return sv::FactorLevelAccumulator::by_area_group(core_key, opt_key);
      },
      [](const auto& a, const auto& b) { expect_factors_eq(a, b); });
  check_splits([&] { return sv::SuspicionAccumulator{}; },
               [](const auto& a, const auto& b) { expect_dists_eq(a, b); });
}

// -- sharded bit-identity at 1/2/4/8 threads -------------------------------

template <typename MakeAcc, typename ExpectEq>
void check_sharded(const MakeAcc& make, const ExpectEq& expect_eq) {
  const std::span<const sv::SurveyRecord> records(cohort());
  const auto serial = fold(make(), 0, records.size()).finish();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    for (const std::size_t chunks : {1u, 7u, 32u}) {
      expect_eq(par::accumulate_span(pool, records, chunks, make).finish(),
                serial);
    }
  }
}

TEST(AccumulatorSharded, BitIdenticalAcrossThreadAndChunkCounts) {
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  check_sharded(
      [&] { return sv::FrequencyAccumulator(pd::positions(), &position_of); },
      [](const auto& a, const auto& b) { expect_rows_eq(a, b); });
  check_sharded(
      [&] {
        return sv::MultiSelectAccumulator(pd::fp_languages(), &languages_of);
      },
      [](const auto& a, const auto& b) { expect_rows_eq(a, b); });
  check_sharded(
      [&] { return sv::AverageTallyAccumulator::core(core_key); },
      [](const auto& a, const auto& b) { expect_tally_eq(a, b); });
  check_sharded(
      [&] { return sv::AverageTallyAccumulator::opt_tf(opt_key); },
      [](const auto& a, const auto& b) { expect_tally_eq(a, b); });
  check_sharded(
      [&] { return sv::ScoreHistogramAccumulator(core_key); },
      [](const auto& a, const auto& b) { expect_hist_eq(a, b); });
  check_sharded(
      [&] { return sv::BreakdownAccumulator::core(core_key); },
      [](const auto& a, const auto& b) { expect_breakdown_eq(a, b); });
  check_sharded(
      [&] { return sv::BreakdownAccumulator::opt(opt_key); },
      [](const auto& a, const auto& b) { expect_breakdown_eq(a, b); });
  check_sharded(
      [&] {
        return sv::FactorLevelAccumulator::by_contributed_size(core_key,
                                                               opt_key);
      },
      [](const auto& a, const auto& b) { expect_factors_eq(a, b); });
  check_sharded(
      [&] {
        return sv::FactorLevelAccumulator::by_area_group(core_key, opt_key);
      },
      [](const auto& a, const auto& b) { expect_factors_eq(a, b); });
  check_sharded(
      [&] { return sv::FactorLevelAccumulator::by_role(core_key, opt_key); },
      [](const auto& a, const auto& b) { expect_factors_eq(a, b); });
  check_sharded(
      [&] {
        return sv::FactorLevelAccumulator::by_formal_training(core_key,
                                                              opt_key);
      },
      [](const auto& a, const auto& b) { expect_factors_eq(a, b); });
  check_sharded([&] { return sv::SuspicionAccumulator{}; },
                [](const auto& a, const auto& b) { expect_dists_eq(a, b); });
}

// -- configuration-mismatch detection --------------------------------------

TEST(AccumulatorConfig, MergeAcrossConfigurationsThrows) {
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  auto core_avg = sv::AverageTallyAccumulator::core(core_key);
  EXPECT_THROW(
      core_avg.merge(sv::AverageTallyAccumulator::opt_tf(opt_key)),
      std::invalid_argument);

  auto flipped_key = core_key;
  flipped_key[0] = flipped_key[0] == quiz::Truth::kTrue ? quiz::Truth::kFalse
                                                        : quiz::Truth::kTrue;
  auto histogram = sv::ScoreHistogramAccumulator(core_key);
  EXPECT_THROW(histogram.merge(sv::ScoreHistogramAccumulator(flipped_key)),
               std::invalid_argument);

  auto positions = sv::FrequencyAccumulator(pd::positions(), &position_of);
  EXPECT_THROW(
      positions.merge(sv::FrequencyAccumulator(pd::areas(), &position_of)),
      std::invalid_argument);

  auto by_role = sv::FactorLevelAccumulator::by_role(core_key, opt_key);
  EXPECT_THROW(
      by_role.merge(sv::FactorLevelAccumulator::by_area_group(core_key,
                                                              opt_key)),
      std::invalid_argument);

  auto core_breakdown = sv::BreakdownAccumulator::core(core_key);
  EXPECT_THROW(core_breakdown.merge(sv::BreakdownAccumulator::opt(opt_key)),
               std::invalid_argument);
}

// -- streaming from the generator ------------------------------------------

TEST(StreamAccumulate, GeneratorShardsMatchMaterializedCohort) {
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kN = 203;
  const auto materialized = fpq::respondent::generate_main_cohort(kSeed, kN);
  const auto core_key = quiz::standard_core_truths();

  auto serial = sv::AverageTallyAccumulator::core(core_key);
  for (const auto& r : materialized) serial.add(r);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    auto streamed = par::stream_accumulate(
        pool, kN, 13,
        [&] { return sv::AverageTallyAccumulator::core(core_key); },
        [&](auto& acc, std::size_t begin, std::size_t end) {
          fpq::respondent::CohortGenerator gen(kSeed);
          gen.seek(begin);
          for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
        });
    expect_tally_eq(streamed.finish(), serial.finish());
  }
}

TEST(StreamAccumulate, ZeroItemsYieldsIdentityAndChunksClamp) {
  par::ThreadPool pool(2);
  const auto core_key = quiz::standard_core_truths();
  const auto make = [&] {
    return sv::AverageTallyAccumulator::core(core_key);
  };
  const std::span<const sv::SurveyRecord> none;
  EXPECT_EQ(par::accumulate_span(pool, none, 8, make).finish().correct, 0.0);

  // chunks > total and chunks == 0 both clamp instead of misbehaving.
  const std::span<const sv::SurveyRecord> three(cohort().data(), 3);
  const auto serial = fold(make(), 0, 3).finish();
  expect_tally_eq(par::accumulate_span(pool, three, 64, make).finish(),
                  serial);
  expect_tally_eq(par::accumulate_span(pool, three, 0, make).finish(),
                  serial);
}

// -- streaming chunk bootstrap ---------------------------------------------

TEST(ChunkBootstrap, ChunkStatsArriveInChunkOrderAndCIIsThreadInvariant) {
  // Feed values whose chunk sums identify the chunk, then check order.
  par::ThreadPool pool(4);
  const std::size_t total = 40, chunks = 5;
  auto acc = par::stream_accumulate(
      pool, total, chunks, [] { return fpq::stats::ChunkStatAccumulator{}; },
      [](auto& a, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          a.add(static_cast<double>(i));
        }
      });
  const auto stats = acc.finish();
  ASSERT_EQ(stats.size(), chunks);
  double prev_sum = -1.0;
  std::size_t seen = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.n, total / chunks);
    EXPECT_GT(s.sum, prev_sum) << "chunk stats out of chunk order";
    prev_sum = s.sum;
    seen += s.n;
  }
  EXPECT_EQ(seen, total);

  const auto ci1 = [&stats] {
    par::ThreadPool single(1);
    return fpq::stats::bootstrap_mean_from_chunks(stats, 500, 0.95, 42,
                                                  single);
  }();
  const auto ci4 =
      fpq::stats::bootstrap_mean_from_chunks(stats, 500, 0.95, 42, pool);
  EXPECT_EQ(ci1.estimate, ci4.estimate);
  EXPECT_EQ(ci1.lower, ci4.lower);
  EXPECT_EQ(ci1.upper, ci4.upper);
  EXPECT_EQ(ci1.estimate, 19.5);  // mean of 0..39
}

}  // namespace
