// survey-stream: parallel::stream_accumulate over a seeded
// respondent::CohortGenerator into one combined fold of the figure
// accumulators (core tally, score histogram, core breakdown, area-group
// factor levels, suspicion). Touches neither softfloat nor ir.

#include <bit>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/ground_truth.hpp"
#include "fpmon/stream_flow.hpp"
#include "parallel/shard.hpp"
#include "parallel/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "respondent/population.hpp"
#include "survey/accumulators.hpp"

namespace perfbench {
namespace {

namespace sv = fpq::survey;
namespace par = fpq::parallel;

constexpr std::size_t kRespondents = std::size_t{1} << 18;
constexpr std::size_t kWarmRespondents = std::size_t{1} << 15;

/// The combined figure fold; merge and finish forward to each accumulator.
class FigureFold {
 public:
  FigureFold(const sv::CoreKey& core, const sv::OptKey& opt)
      : tally_(sv::AverageTallyAccumulator::core(core)),
        hist_(core),
        breakdown_(sv::BreakdownAccumulator::core(core)),
        area_(sv::FactorLevelAccumulator::by_area_group(core, opt)) {}

  void add(const sv::SurveyRecord& r) {
    tally_.add(r);
    hist_.add(r);
    breakdown_.add(r);
    area_.add(r);
    suspicion_.add(r);
  }

  void merge(FigureFold&& o) {
    const Span span("survey.merge");
    tally_.merge(std::move(o.tally_));
    hist_.merge(std::move(o.hist_));
    breakdown_.merge(std::move(o.breakdown_));
    area_.merge(std::move(o.area_));
    suspicion_.merge(std::move(o.suspicion_));
  }

  /// Fingerprint over every finished figure, bit-exact.
  std::uint64_t finish_fingerprint() const {
    std::uint64_t h = 0;
    const auto d = [&h](double v) { h = fold_fp(h, std::bit_cast<std::uint64_t>(v)); };
    const auto tally = [&](const sv::AverageTally& t) {
      d(t.correct);
      d(t.incorrect);
      d(t.dont_know);
      d(t.unanswered);
    };
    tally(tally_.finish());
    const auto hist = hist_.finish();
    for (int v = hist.lo(); v <= hist.hi(); ++v) h = fold_fp(h, hist.count(v));
    h = fold_fp(h, hist.total());
    for (const auto& row : breakdown_.finish()) {
      d(row.pct_correct);
      d(row.pct_incorrect);
      d(row.pct_dont_know);
      d(row.pct_unanswered);
    }
    for (const auto& level : area_.finish()) {
      h = fold_fp(h, level.n);
      tally(level.core);
      tally(level.opt);
    }
    for (const auto& dist : suspicion_.finish()) {
      for (const double p : dist.proportions()) d(p);
    }
    return h;
  }

 private:
  sv::AverageTallyAccumulator tally_;
  sv::ScoreHistogramAccumulator hist_;
  sv::BreakdownAccumulator breakdown_;
  sv::FactorLevelAccumulator area_;
  sv::SuspicionAccumulator suspicion_;
};

struct Stream {
  std::unique_ptr<par::ThreadPool> pool;
  sv::CoreKey core{};
  sv::OptKey opt{};
  std::uint64_t cohort_seed = 0;
};

/// Streams the cohort once through the fold; returns its fingerprint.
std::uint64_t stream_once(const Stream& s, par::ThreadPool& pool,
                          bool monitored) {
  const auto make = [&s] { return FigureFold(s.core, s.opt); };
  const Span stream_span("survey-stream.stream");
  const std::uint64_t parent = stream_span.id();
  const auto fill = [&s, parent](FigureFold& acc, std::size_t begin,
                                 std::size_t end) {
    const Span chunk("survey.chunk", parent);
    fpq::respondent::CohortGenerator gen(s.cohort_seed);
    {
      const Span seek("respondent.seek");
      gen.seek(begin);
    }
    for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
  };
  const std::size_t chunks = par::recommended_chunks(pool, kRespondents, 64);
  if (monitored) {
    return fpq::mon::monitored_stream_accumulate(pool, kRespondents, chunks,
                                                 make, fill)
        .value.finish_fingerprint();
  }
  return par::stream_accumulate(pool, kRespondents, chunks, make, fill)
      .finish_fingerprint();
}

}  // namespace

void run_survey_stream(const Options& o, Result& out) {
  Stream s;
  for (int round = 0; round < kSetupRounds; ++round) {
    s.pool.reset();
    out.setup_s.push_back(timed([&] {
      s.pool = std::make_unique<par::ThreadPool>(kPoolThreads);
      s.core = fpq::quiz::standard_core_truths();
      s.opt = fpq::quiz::standard_opt_truths();
      s.cohort_seed = derive_seed(o.seed, 2000);
      // Warm the generator, the accumulators and the pool on a short
      // stream of the same cohort.
      par::stream_accumulate(
          *s.pool, kWarmRespondents, 16, [&] { return FigureFold(s.core, s.opt); },
          [&](FigureFold& acc, std::size_t begin, std::size_t end) {
            fpq::respondent::CohortGenerator gen(s.cohort_seed);
            gen.seek(begin);
            for (std::size_t i = begin; i < end; ++i) acc.add(gen.next());
          });
    }));
  }
  const std::size_t chunks = par::recommended_chunks(*s.pool, kRespondents, 64);
  out.item_name = "respondents generated and folded";
  out.items_per_rep = static_cast<double>(kRespondents);
  out.input("survey.respondents", static_cast<double>(kRespondents));
  out.input("survey.chunks_per_stream", static_cast<double>(chunks));
  out.info("fold", "core tally, score histogram, core breakdown, "
                   "area-group factor levels, suspicion");

  std::vector<std::uint64_t> fps;
  if (o.trace) {
    repeat_for(o.seconds, 2, [&] {
      out.untraced_s.push_back(
          timed([&] { fps.push_back(stream_once(s, *s.pool, false)); }));
      set_tracing(true);
      out.traced_s.push_back(
          timed([&] { fps.push_back(stream_once(s, *s.pool, false)); }));
      set_tracing(false);
    });
  } else {
    repeat_for(o.seconds, 3, [&] {
      time_pair(
          out, [&] { fps.push_back(stream_once(s, *s.pool, false)); },
          [&] { fps.push_back(stream_once(s, *s.pool, true)); });
      out.rep_s.push_back(out.plain_s.back());
    });
  }

  check_fingerprints(
      o, out, fps,
      [&] {
        par::ThreadPool single(1);
        return stream_once(s, single, false);
      },
      "survey fold");
}

void probe_survey_layers(const Options& o, Result& out) {
  const sv::CoreKey core = fpq::quiz::standard_core_truths();
  const sv::OptKey opt = fpq::quiz::standard_opt_truths();
  const std::uint64_t cohort_seed = derive_seed(o.seed, 2000);
  constexpr std::size_t kProbe = std::size_t{1} << 16;
  std::uint64_t sink = 0;

  // Generation alone: next() with no fold.
  std::vector<double> ts;
  for (int r = 0; r < 3; ++r) {
    ts.push_back(timed([&] {
      fpq::respondent::CohortGenerator gen(cohort_seed);
      for (std::size_t i = 0; i < kProbe; ++i) sink += gen.next().respondent_id;
    }));
  }
  out.layer("respondent.generate.ns_per_record",
            1e9 * median(ts) / static_cast<double>(kProbe), "ns");

  // seek() at every chunk start of one stream, per record streamed.
  {
    par::ThreadPool pool(kPoolThreads);
    const std::size_t chunks = par::recommended_chunks(pool, kRespondents, 64);
    ts.clear();
    for (int r = 0; r < 3; ++r) {
      ts.push_back(timed([&] {
        for (std::size_t c = 0; c < chunks; ++c) {
          fpq::respondent::CohortGenerator gen(cohort_seed);
          gen.seek(par::chunk_range(kRespondents, chunks, c).begin);
          sink += gen.position();
        }
      }));
    }
    out.layer("respondent.seek.ns_per_record",
              1e9 * median(ts) / static_cast<double>(kRespondents), "ns");
  }

  // Fold alone: add() over a pre-generated buffer.
  std::vector<sv::SurveyRecord> buffer;
  buffer.reserve(kProbe);
  {
    fpq::respondent::CohortGenerator gen(cohort_seed);
    for (std::size_t i = 0; i < kProbe; ++i) buffer.push_back(gen.next());
  }
  ts.clear();
  for (int r = 0; r < 3; ++r) {
    FigureFold fold(core, opt);
    ts.push_back(timed([&] {
      for (const sv::SurveyRecord& rec : buffer) fold.add(rec);
    }));
    sink += fold.finish_fingerprint();
  }
  out.layer("survey.fold.ns_per_record",
            1e9 * median(ts) / static_cast<double>(kProbe), "ns");

  // merge + finish of one stream's worth of per-chunk partials.
  {
    par::ThreadPool pool(kPoolThreads);
    const std::size_t chunks = par::recommended_chunks(pool, kRespondents, 64);
    ts.clear();
    for (int r = 0; r < 3; ++r) {
      std::vector<FigureFold> parts;
      for (std::size_t c = 0; c < chunks; ++c) {
        parts.emplace_back(core, opt);
        const par::ChunkRange cr = par::chunk_range(kProbe, chunks, c);
        for (std::size_t i = cr.begin; i < cr.end; ++i) parts.back().add(buffer[i]);
      }
      ts.push_back(timed([&] {
        for (std::size_t c = 1; c < chunks; ++c) parts[0].merge(std::move(parts[c]));
        sink += parts[0].finish_fingerprint();
      }));
    }
    out.layer("survey.merge.us", 1e6 * median(ts), "us");
  }
  if (sink == 0x5eedULL) std::puts("");  // keep the probed results live
}

}  // namespace perfbench
