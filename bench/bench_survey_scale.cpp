// Survey pipeline at serving scale: streams an n-respondent synthetic
// cohort (default 10M) through the mergeable figure accumulators and
// proves the three properties the streaming refactor exists for:
//
//   1. IDENTITY — at small n, every figure analysis computed by the
//      streaming path (1/2/4/8-thread pools) is bit-identical to the
//      classic materialize-then-analyze vector path. Exact ==, no
//      tolerances.
//   2. FLAT MEMORY — peak RSS grows by less than --rss-ceiling-mb when n
//      grows 8x (streaming is O(chunks), a materialized cohort would be
//      O(n)). Gated; CI runs the 1M slice.
//   3. THREAD SCALING — the streamed fold at 1 thread vs the full pool
//      (informational: machines differ, CI does not gate it), plus the
//      1-thread stream split into generation and fold ns/record.
//
// Plus the serving-scale CI machinery: a cluster bootstrap over streamed
// chunk statistics (stats/bootstrap.hpp) — memory O(chunks + replicates).
// Its chunk count is a pure function of n, so the interval is too: gated
// equal between a 1-thread pool and the full pool.
//
//   ./bench_survey_scale [--n N] [--threads T] [--rss-ceiling-mb MB]
//                        [--monitor] [--monitor-budget FRAC]
//
// --n is at least 64; --threads 0 (the default) means the hardware
// default; --rss-ceiling-mb and --monitor-budget are finite and positive.
// A bad value exits 2 before any gate runs.
//
// --monitor adds phase 5: the same streamed fold under always-on flow
// monitoring (fpmon/stream_flow.hpp), gated on sampling overhead staying
// within --monitor-budget (default 0.10 = 10%) of the unmonitored
// wall-clock (fastest of 3 alternating runs on each side), and on the
// flow report fingerprint being bit-identical at
// 1/2/4/8-thread pools (the chunk count is a pure function of n, so the
// monitored merge tree is too).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "core/ground_truth.hpp"
#include "fpmon/stream_flow.hpp"
#include "paperdata/paperdata.hpp"
#include "stats/bootstrap.hpp"
#include "survey/accumulators.hpp"
#include "survey/analysis.hpp"
#include "survey/factor_analysis.hpp"
#include "survey/suspicion_analysis.hpp"

namespace sv = fpq::survey;
namespace pd = fpq::paperdata;
namespace quiz = fpq::quiz;
namespace par = fpq::parallel;

namespace {

double max_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Adds records [begin, end) of the kCohortSeed cohort to `acc`.
constexpr auto fill_cohort = [](auto& acc, std::size_t begin,
                                std::size_t end) {
  fpq::respondent::CohortGenerator gen(fpq::bench::kCohortSeed);
  gen.seek(begin);
  for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
};

/// A chunk count fixed by n alone (up to 64 chunks of at least 64
/// records), for results whose value depends on the chunk shape.
std::size_t fixed_chunks(std::size_t n) {
  return std::min<std::size_t>(64, std::max<std::size_t>(1, n / 64));
}

/// Streams records [0, n) of the kCohortSeed cohort through make_acc()'s
/// accumulator type on the given pool.
template <typename MakeAcc>
auto stream_n(par::ThreadPool& pool, std::size_t n, const MakeAcc& make_acc) {
  return par::stream_accumulate(pool, n, par::recommended_chunks(pool, n, 64),
                                make_acc, fill_cohort);
}

int g_failures = 0;

void check(bool ok, const char* what, int threads) {
  if (!ok) {
    std::printf("IDENTITY FAILURE: %s at %d thread(s)\n", what, threads);
    ++g_failures;
  }
}

bool rows_equal(const std::vector<sv::TableRow>& a,
                const std::vector<sv::TableRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].n != b[i].n ||
        a[i].percent != b[i].percent) {
      return false;
    }
  }
  return true;
}

bool tally_equal(const sv::AverageTally& a, const sv::AverageTally& b) {
  return a.correct == b.correct && a.incorrect == b.incorrect &&
         a.dont_know == b.dont_know && a.unanswered == b.unanswered;
}

bool hist_equal(const fpq::stats::IntHistogram& a,
                const fpq::stats::IntHistogram& b) {
  if (a.lo() != b.lo() || a.hi() != b.hi() || a.total() != b.total() ||
      a.underflow() != b.underflow() || a.overflow() != b.overflow()) {
    return false;
  }
  for (int v = a.lo(); v <= a.hi(); ++v) {
    if (a.count(v) != b.count(v)) return false;
  }
  return true;
}

bool breakdown_equal(const std::vector<sv::BreakdownRow>& a,
                     const std::vector<sv::BreakdownRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].pct_correct != b[i].pct_correct ||
        a[i].pct_incorrect != b[i].pct_incorrect ||
        a[i].pct_dont_know != b[i].pct_dont_know ||
        a[i].pct_unanswered != b[i].pct_unanswered) {
      return false;
    }
  }
  return true;
}

bool factors_equal(const std::vector<sv::FactorLevelResult>& a,
                   const std::vector<sv::FactorLevelResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].n != b[i].n ||
        !tally_equal(a[i].core, b[i].core) ||
        !tally_equal(a[i].opt, b[i].opt)) {
      return false;
    }
  }
  return true;
}

bool dists_equal(const sv::SuspicionDistributions& a,
                 const sv::SuspicionDistributions& b) {
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    const auto pa = a[c].proportions();
    const auto pb = b[c].proportions();
    for (std::size_t i = 0; i < pa.size(); ++i) {
      if (pa[i] != pb[i]) return false;
    }
  }
  return true;
}

/// Phase 1: bit-identity of every streamed figure analysis against the
/// materialized vector path, at 1/2/4/8-thread pools.
void identity_gate() {
  constexpr std::size_t kSmallN = 2000;
  const auto cohort =
      fpq::respondent::generate_main_cohort(fpq::bench::kCohortSeed, kSmallN);
  const auto core_key = quiz::standard_core_truths();
  const auto opt_key = quiz::standard_opt_truths();

  const auto ref_freq = sv::frequency_table(
      cohort, pd::positions(),
      [](const sv::SurveyRecord& r) { return r.background.position; });
  const auto ref_multi = sv::multi_select_table(
      cohort, pd::fp_languages(),
      [](const sv::SurveyRecord& r) { return r.background.fp_languages; });
  const auto ref_core = sv::average_core(cohort, core_key);
  const auto ref_opt = sv::average_opt_tf(cohort, opt_key);
  const auto ref_hist = sv::core_score_histogram(cohort, core_key);
  const auto ref_cbrk = sv::core_question_breakdown(cohort, core_key);
  const auto ref_obrk = sv::opt_question_breakdown(cohort, opt_key);
  const auto ref_area = sv::by_area_group(cohort, core_key, opt_key);
  const auto ref_susp = sv::suspicion_distributions(
      std::span<const sv::SurveyRecord>(cohort));

  for (const int threads : {1, 2, 4, 8}) {
    par::ThreadPool pool(static_cast<std::size_t>(threads));
    check(rows_equal(ref_freq,
                     stream_n(pool, kSmallN, [] {
                       return sv::FrequencyAccumulator(
                           pd::positions(), [](const sv::SurveyRecord& r) {
                             return r.background.position;
                           });
                     }).finish()),
          "frequency_table", threads);
    check(rows_equal(ref_multi,
                     stream_n(pool, kSmallN, [] {
                       return sv::MultiSelectAccumulator(
                           pd::fp_languages(),
                           [](const sv::SurveyRecord& r) {
                             return r.background.fp_languages;
                           });
                     }).finish()),
          "multi_select_table", threads);
    check(tally_equal(ref_core,
                      stream_n(pool, kSmallN, [&] {
                        return sv::AverageTallyAccumulator::core(core_key);
                      }).finish()),
          "average_core", threads);
    check(tally_equal(ref_opt,
                      stream_n(pool, kSmallN, [&] {
                        return sv::AverageTallyAccumulator::opt_tf(opt_key);
                      }).finish()),
          "average_opt_tf", threads);
    check(hist_equal(ref_hist,
                     stream_n(pool, kSmallN, [&] {
                       return sv::ScoreHistogramAccumulator(core_key);
                     }).finish()),
          "core_score_histogram", threads);
    check(breakdown_equal(ref_cbrk,
                          stream_n(pool, kSmallN, [&] {
                            return sv::BreakdownAccumulator::core(core_key);
                          }).finish()),
          "core_question_breakdown", threads);
    check(breakdown_equal(ref_obrk,
                          stream_n(pool, kSmallN, [&] {
                            return sv::BreakdownAccumulator::opt(opt_key);
                          }).finish()),
          "opt_question_breakdown", threads);
    check(factors_equal(ref_area,
                        stream_n(pool, kSmallN, [&] {
                          return sv::FactorLevelAccumulator::by_area_group(
                              core_key, opt_key);
                        }).finish()),
          "by_area_group", threads);
    check(dists_equal(ref_susp,
                      stream_n(pool, kSmallN, [] {
                        return sv::SuspicionAccumulator{};
                      }).finish()),
          "suspicion_distributions", threads);
  }
  std::printf(
      "identity gate: streamed == materialized for 9 analyses x {1,2,4,8} "
      "threads: %s\n",
      g_failures == 0 ? "PASS (bit-exact)" : "FAIL");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 10'000'000;
  std::size_t threads = 0;  // 0 = hardware default
  double rss_ceiling_mb = 512.0;
  bool monitor = false;
  double monitor_budget = 0.10;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--monitor") == 0) {
      monitor = true;
      continue;
    }
    const char* value = i + 1 < argc ? argv[++i] : "";
    std::uint64_t v = 0;
    bool ok = false;
    if (std::strcmp(arg, "--n") == 0) {
      ok = fpq::bench::parse_number(value, SIZE_MAX, v) && v >= 64;
      n = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--threads") == 0) {
      ok = fpq::bench::parse_number(value, 1024, v);
      threads = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--rss-ceiling-mb") == 0) {
      ok = fpq::bench::parse_positive(value, rss_ceiling_mb);
    } else if (std::strcmp(arg, "--monitor-budget") == 0) {
      ok = fpq::bench::parse_positive(value, monitor_budget);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value, arg);
      return 2;
    }
  }

  identity_gate();

  par::ThreadPool pool(threads);
  const auto core_key = quiz::standard_core_truths();

  // Phase 2: flat memory. Warm the allocator and pool with an n/8 run,
  // snapshot peak RSS, then run the full n; ru_maxrss is a lifetime max,
  // so any growth is attributable to the 8x larger stream.
  const std::size_t warm_n = n / 8;
  auto warm = stream_n(pool, warm_n, [&] {
    return sv::AverageTallyAccumulator::core(core_key);
  });
  const double rss_before = max_rss_mb();

  const auto t0 = std::chrono::steady_clock::now();
  auto full = stream_n(pool, n, [&] {
    return sv::AverageTallyAccumulator::core(core_key);
  });
  const auto t1 = std::chrono::steady_clock::now();
  const double rss_after = max_rss_mb();
  const double rss_delta = rss_after - rss_before;

  const double pooled_s =
      std::chrono::duration<double>(t1 - t0).count();
  const auto avg = full.finish();
  std::printf(
      "streamed %zu respondents in %.2fs (%.0f records/s, %zu threads): "
      "mean core correct %.4f (chance 7.5)\n",
      n, pooled_s, static_cast<double>(n) / pooled_s, pool.lanes(),
      avg.correct);
  if (warm.finish().correct == 0.0 && warm_n > 0) {
    std::printf("warm-up fold produced an unexpected zero mean\n");
    ++g_failures;
  }

  const double materialized_floor_mb =
      static_cast<double>(n) * sizeof(sv::SurveyRecord) / (1024.0 * 1024.0);
  std::printf(
      "flat-memory gate: peak RSS %.1f MB -> %.1f MB (delta %.1f MB, "
      "ceiling %.1f MB); a materialized cohort vector would need >= %.0f "
      "MB\n",
      rss_before, rss_after, rss_delta, rss_ceiling_mb,
      materialized_floor_mb);
  if (rss_delta > rss_ceiling_mb) {
    std::printf("FLAT-MEMORY FAILURE: RSS grew %.1f MB > ceiling %.1f MB\n",
                rss_delta, rss_ceiling_mb);
    ++g_failures;
  }

  // Phase 3: thread scaling — the same fold on a single-thread pool.
  par::ThreadPool single(1);
  const auto s0 = std::chrono::steady_clock::now();
  auto serial = stream_n(single, n, [&] {
    return sv::AverageTallyAccumulator::core(core_key);
  });
  const auto s1 = std::chrono::steady_clock::now();
  const double serial_s = std::chrono::duration<double>(s1 - s0).count();
  if (!tally_equal(serial.finish(), avg)) {
    std::printf("IDENTITY FAILURE: full-scale 1-thread vs pooled fold\n");
    ++g_failures;
  }
  std::printf(
      "thread scaling: 1 thread %.2fs, %zu threads %.2fs — speedup "
      "%.2fx\n",
      serial_s, pool.lanes(), pooled_s, serial_s / pooled_s);

  // Phase 3b: the 1-thread stream split into its two layers, each timed
  // alone on the first `split_n` records (best of 3): generation (next()
  // with no fold) and the fold (add() over those records, materialized).
  const std::size_t split_n = std::min<std::size_t>(n, std::size_t{1} << 16);
  const auto best_of_3 = [](const auto& body) {
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
      const auto b0 = std::chrono::steady_clock::now();
      body();
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - b0)
                           .count();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };
  const double generate_s = best_of_3([&] {
    fpq::respondent::CohortGenerator gen(fpq::bench::kCohortSeed);
    for (std::size_t i = 0; i < split_n; ++i) gen.next();
  });
  double fold_s = 0.0;
  {
    const auto records = fpq::respondent::generate_main_cohort(
        fpq::bench::kCohortSeed, split_n);
    fold_s = best_of_3([&] {
      auto acc = sv::AverageTallyAccumulator::core(core_key);
      for (const auto& r : records) acc.add(r);
    });
  }
  const double generate_ns = 1e9 * generate_s / static_cast<double>(split_n);
  const double fold_ns = 1e9 * fold_s / static_cast<double>(split_n);
  std::printf(
      "1-thread layers over %zu records: generate %.1f ns/record, fold "
      "%.1f ns/record (generation %.0f%% of the pair)\n",
      split_n, generate_ns, fold_ns,
      100.0 * generate_ns / (generate_ns + fold_ns));

  // Phase 4: the memory-bounded bootstrap CI over streamed chunk stats.
  // A cluster bootstrap resamples chunks, so the chunk count is fixed by n
  // alone, not by the pool width.
  class ScoreChunks {
   public:
    explicit ScoreChunks(const sv::CoreKey& key) : key_(key) {}
    void add(const sv::SurveyRecord& r) {
      acc_.add(static_cast<double>(quiz::score_core(r.core, key_).correct));
    }
    void merge(ScoreChunks&& other) { acc_.merge(std::move(other.acc_)); }
    std::vector<fpq::stats::ChunkMeanStat> finish() const {
      return acc_.finish();
    }

   private:
    sv::CoreKey key_;
    fpq::stats::ChunkStatAccumulator acc_;
  };
  const auto chunk_stats_on = [&](par::ThreadPool& p) {
    return par::stream_accumulate(
               p, n, fixed_chunks(n), [&] { return ScoreChunks(core_key); },
               fill_cohort)
        .finish();
  };
  const auto chunk_stats = chunk_stats_on(pool);
  const auto ci = fpq::stats::bootstrap_mean_from_chunks(
      chunk_stats, 2000, 0.95, 0xB007, pool);
  std::printf(
      "streaming chunk bootstrap (%zu chunks, 2000 replicates): mean core "
      "score %.4f, 95%% CI [%.4f, %.4f]\n",
      chunk_stats.size(), ci.estimate, ci.lower, ci.upper);
  if (ci.estimate != avg.correct) {
    std::printf(
        "IDENTITY FAILURE: chunk-stat mean %.17g != streamed mean %.17g\n",
        ci.estimate, avg.correct);
    ++g_failures;
  }
  const auto single_ci = fpq::stats::bootstrap_mean_from_chunks(
      chunk_stats_on(single), 2000, 0.95, 0xB007, single);
  const bool ci_invariant = single_ci.estimate == ci.estimate &&
                            single_ci.lower == ci.lower &&
                            single_ci.upper == ci.upper;
  std::printf("bootstrap thread-invariance gate: 1 thread vs %zu: %s\n",
              pool.lanes(), ci_invariant ? "PASS (bit-exact)" : "FAIL");
  if (!ci_invariant) {
    std::printf(
        "IDENTITY FAILURE: 1-thread CI [%.17g, %.17g] != pooled CI "
        "[%.17g, %.17g]\n",
        single_ci.lower, single_ci.upper, ci.lower, ci.upper);
    ++g_failures;
  }

  // Phase 5 (--monitor): the same fold under always-on flow monitoring.
  // The chunk count is fixed by n alone so the monitored merge tree —
  // and therefore the flow report fingerprint — is thread-count
  // invariant.
  if (monitor) {
    const std::size_t flow_chunks = fixed_chunks(n);
    const auto make_acc = [&] {
      return sv::AverageTallyAccumulator::core(core_key);
    };

    // Unmonitored reference fold over the SAME fixed chunk shape, so the
    // overhead comparison is monitoring cost only, not chunking changes.
    // The two folds alternate kMonitorReps times and each side keeps its
    // fastest run: a 1M-record fold takes a fraction of a second, so on a
    // shared host one descheduled run would otherwise decide the gate.
    constexpr int kMonitorReps = 3;
    auto plain =
        par::stream_accumulate(pool, n, flow_chunks, make_acc, fill_cohort);
    auto monitored = fpq::mon::monitored_stream_accumulate(
        pool, n, flow_chunks, make_acc, fill_cohort);
    double plain_s = 0.0;
    double mon_s = 0.0;
    for (int rep = 0; rep < kMonitorReps; ++rep) {
      const auto u0 = std::chrono::steady_clock::now();
      plain = par::stream_accumulate(pool, n, flow_chunks, make_acc,
                                     fill_cohort);
      const auto u1 = std::chrono::steady_clock::now();
      monitored = fpq::mon::monitored_stream_accumulate(
          pool, n, flow_chunks, make_acc, fill_cohort);
      const auto m1 = std::chrono::steady_clock::now();
      const double p = std::chrono::duration<double>(u1 - u0).count();
      const double m = std::chrono::duration<double>(m1 - u1).count();
      plain_s = rep == 0 ? p : std::min(plain_s, p);
      mon_s = rep == 0 ? m : std::min(mon_s, m);
    }
    const double overhead =
        plain_s > 0.0 ? (mon_s - plain_s) / plain_s : 0.0;

    const auto flow_summary = monitored.flow.ledger.summary();
    std::printf(
        "monitored fold: %.2fs vs %.2fs unmonitored (overhead %+.1f%%, "
        "budget %.0f%%); conditions [%s]; flow: %zu seam samples, %zu "
        "born, %zu killed\n",
        mon_s, plain_s, 100.0 * overhead, 100.0 * monitor_budget,
        monitored.flow.conditions.to_string().c_str(),
        flow_summary.seam_samples, flow_summary.born,
        flow_summary.killed);
    std::printf(
        "monitor capability: trap %s, denormal tracking %s, seam "
        "collector %s\n",
        monitored.flow.capability.trap_supported ? "available"
                                                 : "unavailable",
        monitored.flow.capability.tracks_denormals ? "on" : "off",
        monitored.flow.capability.seam_collector ? "on" : "off");
    if (!tally_equal(monitored.value.finish(), plain.finish())) {
      std::printf(
          "IDENTITY FAILURE: monitored fold changed the tally\n");
      ++g_failures;
    }
    if (overhead > monitor_budget) {
      std::printf(
          "MONITOR-OVERHEAD FAILURE: %.1f%% > budget %.0f%%\n",
          100.0 * overhead, 100.0 * monitor_budget);
      ++g_failures;
    }

    // Flow-report determinism: the fingerprint must be bit-identical at
    // every pool width (merge order is fixed by the chunk tree).
    const std::uint64_t ref_fp = monitored.flow.fingerprint();
    for (const int t : {1, 2, 4, 8}) {
      par::ThreadPool tp(static_cast<std::size_t>(t));
      auto again = fpq::mon::monitored_stream_accumulate(
          tp, n, flow_chunks, make_acc, fill_cohort);
      if (again.flow.fingerprint() != ref_fp) {
        std::printf(
            "IDENTITY FAILURE: flow fingerprint diverged at %d "
            "thread(s)\n",
            t);
        ++g_failures;
      }
    }
    std::printf(
        "monitor identity gate: flow fingerprint 0x%016llx stable over "
        "{1,2,4,8} threads: %s\n",
        static_cast<unsigned long long>(ref_fp),
        g_failures == 0 ? "PASS" : "FAIL");
  }

  std::printf("%s\n", g_failures == 0 ? "survey-scale: ALL GATES PASS"
                                      : "survey-scale: FAILURES");
  return g_failures == 0 ? 0 : 1;
}
