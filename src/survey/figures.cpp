#include "survey/figures.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/ground_truth.hpp"
#include "paperdata/paperdata.hpp"
#include "report/barchart.hpp"
#include "report/table.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"

namespace fpq::survey {

namespace {

namespace pd = fpq::paperdata;
namespace rp = fpq::report;
using rp::ComparisonRow;

// Figures 1-11: the paper's table and the record field it counts.
struct BackgroundTable {
  const char* name;
  std::span<const pd::CategoryCount> (*paper)() noexcept;
  FieldSelector single;  // null for a multi-select table
  ListSelector multi;
};

constexpr std::array<BackgroundTable, 11> kBackground{{
    {"Fig1 position", pd::positions,
     [](const SurveyRecord& r) { return r.background.position; }, nullptr},
    {"Fig2 area", pd::areas,
     [](const SurveyRecord& r) { return r.background.area; }, nullptr},
    {"Fig3 training", pd::formal_training,
     [](const SurveyRecord& r) { return r.background.formal_training; },
     nullptr},
    {"Fig4 informal", pd::informal_training, nullptr,
     [](const SurveyRecord& r) { return r.background.informal_training; }},
    {"Fig5 role", pd::dev_roles,
     [](const SurveyRecord& r) { return r.background.dev_role; }, nullptr},
    {"Fig6", pd::fp_languages, nullptr,
     [](const SurveyRecord& r) { return r.background.fp_languages; }},
    {"Fig7", pd::arb_prec_languages, nullptr,
     [](const SurveyRecord& r) { return r.background.arb_prec_languages; }},
    {"Fig8 contributed size", pd::contributed_codebase_sizes,
     [](const SurveyRecord& r) { return r.background.contributed_size; },
     nullptr},
    {"Fig9 contributed FP extent", pd::contributed_fp_extent,
     [](const SurveyRecord& r) { return r.background.contributed_extent; },
     nullptr},
    {"Fig10 involved size", pd::involved_codebase_sizes,
     [](const SurveyRecord& r) { return r.background.involved_size; },
     nullptr},
    {"Fig11 involved FP extent", pd::involved_fp_extent,
     [](const SurveyRecord& r) { return r.background.involved_extent; },
     nullptr},
}};

// Everything the claims read, finished from one fold.
struct Results {
  std::size_t main_n = 0;
  std::size_t student_n = 0;
  std::array<std::vector<TableRow>, 11> background;
  AverageTally core_avg, opt_avg;
  std::array<double, 8> sd{};  // of each tally, in FigureAccumulator order
  std::vector<double> core_scores;
  stats::IntHistogram core_hist{0, 0};
  std::vector<BreakdownRow> core_breakdown, opt_breakdown;
  std::vector<FactorLevelResult> by_size, by_area, by_role, by_training;
  SuspicionDistributions main_suspicion, student_suspicion;
};

// -- The tolerance rule ---------------------------------------------------

ComparisonRow untestable(std::string quantity, double paper, double measured,
                         std::size_t n) {
  ComparisonRow row{std::move(quantity), paper, measured};
  row.untestable_n = n;
  return row;
}

// Distance claim with tolerance k * se(n), or untestable below the
// minimum sample.
template <typename StandardError>
ComparisonRow distance(std::string quantity, double paper, double measured,
                       std::size_t n, StandardError se) {
  if (n < kMinSampleN) {
    return untestable(std::move(quantity), paper, measured, n);
  }
  return {std::move(quantity), paper, measured,
          kClaimSigmas * se(static_cast<double>(n))};
}

// A count out of the cohort's n, binomial at the paper's proportion.
ComparisonRow count_claim(std::string quantity, double paper,
                          double measured, std::size_t n) {
  return distance(std::move(quantity), paper, measured, n, [&](double dn) {
    return std::sqrt(paper * (1.0 - paper / dn));
  });
}

// A percentage of the cohort's n, binomial at the paper's proportion.
ComparisonRow percent_claim(std::string quantity, double paper,
                            double measured, std::size_t n) {
  return distance(std::move(quantity), paper, measured, n, [&](double dn) {
    return std::sqrt(paper * (100.0 - paper) / dn);
  });
}

// A mean over n respondents whose tally has standard deviation sd.
ComparisonRow mean_claim(std::string quantity, double paper, double measured,
                         double sd, std::size_t n) {
  return distance(std::move(quantity), paper, measured, n,
                  [&](double dn) { return sd / std::sqrt(dn); });
}

ComparisonRow shape_claim(std::string quantity, double paper, double measured,
                          bool holds, std::size_t n) {
  if (n < kMinSampleN) {
    return untestable(std::move(quantity), paper, measured, n);
  }
  ComparisonRow row{std::move(quantity), paper, measured};
  row.holds = holds;
  return row;
}

// -- Figures 16-21: factor levels -----------------------------------------

double value(const FactorLevelResult& level, bool opt) {
  return opt ? level.opt.correct : level.core.correct;
}

double value(const pd::FactorLevelTarget& target, bool opt) {
  return opt ? target.opt_correct : target.core_correct;
}

void level_claims(std::vector<ComparisonRow>& rows, const char* figure,
                  std::span<const pd::FactorLevelTarget> targets,
                  const std::vector<FactorLevelResult>& levels, double sd,
                  bool opt) {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    rows.push_back(mean_claim(std::string(figure) + " " +
                                  std::string(targets[i].label) + " (n=" +
                                  std::to_string(levels[i].n) + ")",
                              value(targets[i], opt), value(levels[i], opt),
                              sd, levels[i].n));
  }
}

// Max - min of the core means over the testable levels, against the
// paper's; the standard error is that of the two extreme levels' means.
ComparisonRow spread_claim(const char* figure,
                           std::span<const pd::FactorLevelTarget> targets,
                           const std::vector<FactorLevelResult>& levels,
                           double sd) {
  const auto [paper_lo, paper_hi] = std::minmax_element(
      targets.begin(), targets.end(), [](const auto& a, const auto& b) {
        return a.core_correct < b.core_correct;
      });
  const FactorLevelResult* lo = nullptr;
  const FactorLevelResult* hi = nullptr;
  std::size_t largest = 0;
  for (const auto& level : levels) {
    largest = std::max(largest, level.n);
    if (level.n < kMinSampleN) continue;
    if (!lo || level.core.correct < lo->core.correct) lo = &level;
    if (!hi || level.core.correct > hi->core.correct) hi = &level;
  }
  const double paper = paper_hi->core_correct - paper_lo->core_correct;
  std::string quantity = std::string(figure) + " spread (max - min)";
  if (hi == nullptr) {
    return untestable(std::move(quantity), paper, 0.0, largest);
  }
  return {std::move(quantity), paper, hi->core.correct - lo->core.correct,
          kClaimSigmas * sd *
              std::sqrt(1.0 / static_cast<double>(hi->n) +
                        1.0 / static_cast<double>(lo->n))};
}

// Shape: level `above` scores over level `below`, as in the paper.
ComparisonRow order_claim(const char* figure,
                          std::span<const pd::FactorLevelTarget> targets,
                          const std::vector<FactorLevelResult>& levels,
                          std::size_t below, std::size_t above, bool opt) {
  const double measured =
      value(levels[above], opt) - value(levels[below], opt);
  return shape_claim(std::string(figure) + " " +
                         std::string(targets[above].label) + " above " +
                         std::string(targets[below].label),
                     value(targets[above], opt) - value(targets[below], opt),
                     measured, measured > 0.0,
                     std::min(levels[above].n, levels[below].n));
}

std::string factor_chart(const char* title,
                         const std::vector<FactorLevelResult>& levels,
                         bool opt) {
  std::vector<rp::Bar> bars;
  for (const auto& level : levels) {
    bars.push_back({level.label + " (n=" + std::to_string(level.n) + ")",
                    value(level, opt)});
  }
  rp::BarChartOptions chart;
  if (opt) {
    chart.max_width = 40;
    chart.decimals = 2;
  } else {
    chart.reference = pd::core_quiz_averages().chance;
    chart.show_reference = true;
  }
  return rp::section(title, rp::bar_chart(bars, chart));
}

// -- Figure blocks --------------------------------------------------------

std::string of_n(std::size_t n) { return "n=" + std::to_string(n) + ")"; }

void background_blocks(const Results& r, std::vector<FigureBlock>& out) {
  const std::array<std::pair<std::size_t, const char*>, 3> groups{{
      {5, "Figures 1-5: participant background (counts, "},
      {7, "Figures 6-7: language experience (counts, multi-select, "},
      {11, "Figures 8-11: codebase experience (counts, "},
  }};
  std::size_t fig = 0;
  for (const auto& [last, title] : groups) {
    FigureBlock block{title + of_n(r.main_n), "", {}, 0};
    for (; fig < last; ++fig) {
      const auto paper = kBackground[fig].paper();
      for (std::size_t i = 0; i < paper.size(); ++i) {
        block.claims.push_back(count_claim(
            std::string(kBackground[fig].name) + ": " +
                std::string(paper[i].label),
            static_cast<double>(paper[i].n),
            static_cast<double>(r.background[fig][i].n), r.main_n));
      }
    }
    out.push_back(std::move(block));
  }
}

FigureBlock figure12(const Results& r) {
  const auto core = pd::core_quiz_averages();
  const auto opt = pd::opt_quiz_averages();
  const std::size_t n = r.main_n;
  FigureBlock b{"Figure 12: average quiz performance (" + of_n(n), "", {}, 2};
  const auto tally_claims = [&](const char* quiz_name,
                                const pd::QuizAverages& paper,
                                const AverageTally& measured,
                                std::size_t first_sd) {
    const std::array<const char*, 4> names{" #correct", " #incorrect",
                                           " #don't-know", " #unanswered"};
    const std::array<double, 4> p{paper.correct, paper.incorrect,
                                  paper.dont_know, paper.unanswered};
    const std::array<double, 4> m{measured.correct, measured.incorrect,
                                  measured.dont_know, measured.unanswered};
    for (std::size_t k = 0; k < 4; ++k) {
      b.claims.push_back(mean_claim(quiz_name + std::string(names[k]), p[k],
                                    m[k], r.sd[first_sd + k], n));
    }
  };
  tally_claims("core", core, r.core_avg, 0);
  tally_claims("opt", opt, r.opt_avg, 4);
  auto& c = b.claims;
  c.push_back(shape_claim("core #correct above chance", core.correct,
                          r.core_avg.correct,
                          r.core_avg.correct > core.chance, n));
  c.push_back(shape_claim("opt #correct below chance", opt.correct,
                          r.opt_avg.correct, r.opt_avg.correct < opt.chance,
                          n));
  c.push_back(shape_claim("opt #don't-know above chance (dominates)",
                          opt.dont_know, r.opt_avg.dont_know,
                          r.opt_avg.dont_know > opt.chance, n));
  // Resampling uncertainty: the 95 % bootstrap CI of the mean core score
  // must contain the paper's mean.
  stats::BootstrapInterval ci;
  if (n >= kMinSampleN) {
    stats::Xoshiro256pp g(0xB007);
    ci = stats::bootstrap_mean(r.core_scores, 4000, 0.95, g);
  }
  c.push_back(shape_claim("core #correct 95% bootstrap CI [" +
                              rp::Table::fmt(ci.lower, 2) + ", " +
                              rp::Table::fmt(ci.upper, 2) +
                              "] contains the paper's mean",
                          core.correct, ci.estimate,
                          ci.lower <= core.correct && core.correct <= ci.upper,
                          n));
  return b;
}

FigureBlock figure13(const Results& r) {
  const auto& hist = r.core_hist;
  const std::size_t n = hist.total();
  FigureBlock b{"Figure 13: summary statistics",
                rp::section("Figure 13: core quiz score histogram (simulated)",
                            rp::int_histogram_chart(hist)),
                {}, 2};
  int mode = hist.lo();
  double low = 0.0, bulk = 0.0;  // percent at or below chance, in 4-13
  for (int s = hist.lo(); s <= hist.hi(); ++s) {
    if (hist.count(s) > hist.count(mode)) mode = s;
    const double pct = 100.0 * hist.proportion(s);
    if (s < pd::core_quiz_averages().chance) low += pct;
    if (s >= 4 && s <= 13) bulk += pct;
  }
  auto& c = b.claims;
  c.push_back(mean_claim("mean core score", pd::kCoreScoreMean, hist.mean(),
                         r.sd[0], n));
  c.push_back(shape_claim(
      "mode within 2 of the paper's mean (the chart peaks at 8-9)",
      pd::kCoreScoreMean, mode, std::fabs(mode - pd::kCoreScoreMean) < 2.0,
      n));
  c.push_back(shape_claim("% scoring at or below chance under 50", 50.0, low,
                          low < 50.0, n));
  c.push_back(
      shape_claim("% scoring 4-13 over 85", 85.0, bulk, bulk > 85.0, n));
  return b;
}

FigureBlock figure14(const Results& r) {
  const auto paper = pd::core_breakdown();
  const auto& rows = r.core_breakdown;
  FigureBlock b{"Figure 14: core quiz by question (percent, " + of_n(r.main_n),
                "", {}, 1};
  std::size_t flagged = 0, majority_wrong = 0;
  bool same_rows = true;
  for (std::size_t q = 0; q < paper.size(); ++q) {
    const std::string label(paper[q].label);
    b.claims.push_back(percent_claim(label + " %correct", paper[q].pct_correct,
                                     rows[q].pct_correct, r.main_n));
    if (paper[q].majority_wrong) {
      b.claims.push_back(percent_claim(label + " %incorrect",
                                       paper[q].pct_incorrect,
                                       rows[q].pct_incorrect, r.main_n));
    }
    b.claims.push_back(percent_claim(label + " %don't-know",
                                     paper[q].pct_dont_know,
                                     rows[q].pct_dont_know, r.main_n));
    const bool wrong = rows[q].pct_incorrect > 50.0;
    flagged += paper[q].majority_wrong;
    majority_wrong += wrong;
    same_rows = same_rows && wrong == paper[q].majority_wrong;
  }
  b.claims.push_back(shape_claim(
      "majority-wrong rows (%incorrect > 50) are the paper's flagged rows",
      static_cast<double>(flagged), static_cast<double>(majority_wrong),
      same_rows, r.main_n));
  return b;
}

FigureBlock figure15(const Results& r) {
  const auto paper = pd::opt_breakdown();
  const auto& rows = r.opt_breakdown;
  FigureBlock b{
      "Figure 15: optimization quiz by question (percent, " + of_n(r.main_n),
      "", {}, 1};
  double paper_min_dk = 100.0, min_dk = 100.0;
  for (std::size_t q = 0; q < paper.size(); ++q) {
    const std::string label(paper[q].label);
    b.claims.push_back(percent_claim(label + " %correct", paper[q].pct_correct,
                                     rows[q].pct_correct, r.main_n));
    b.claims.push_back(percent_claim(label + " %incorrect",
                                     paper[q].pct_incorrect,
                                     rows[q].pct_incorrect, r.main_n));
    b.claims.push_back(percent_claim(label + " %don't-know",
                                     paper[q].pct_dont_know,
                                     rows[q].pct_dont_know, r.main_n));
    paper_min_dk = std::min(paper_min_dk, paper[q].pct_dont_know);
    min_dk = std::min(min_dk, rows[q].pct_dont_know);
  }
  b.claims.push_back(shape_claim("lowest %don't-know over 50", paper_min_dk,
                                 min_dk, min_dk > 50.0, r.main_n));
  return b;
}

FigureBlock figures16_19(const Results& r) {
  FigureBlock b{
      "Figures 16-19: factor effects on core score (mean correct /15)",
      factor_chart("Figure 16: core score by contributed codebase size",
                   r.by_size, false) +
          factor_chart("Figure 17: core score by area", r.by_area, false) +
          factor_chart("Figure 18: core score by software development role",
                       r.by_role, false) +
          factor_chart("Figure 19: core score by formal FP training",
                       r.by_training, false),
      {}, 2};
  auto& c = b.claims;
  const double sd = r.sd[0];
  level_claims(c, "Fig16", pd::contributed_size_effect(), r.by_size, sd,
               false);
  level_claims(c, "Fig17", pd::area_effect(), r.by_area, sd, false);
  level_claims(c, "Fig18", pd::role_effect(), r.by_role, sd, false);
  level_claims(c, "Fig19", pd::training_effect(), r.by_training, sd, false);
  c.push_back(
      spread_claim("Fig16", pd::contributed_size_effect(), r.by_size, sd));
  c.push_back(spread_claim("Fig17", pd::area_effect(), r.by_area, sd));
  c.push_back(spread_claim("Fig19", pd::training_effect(), r.by_training, sd));
  // Bigger codebases, better scores; courses beat no training.
  c.push_back(order_claim("Fig16", pd::contributed_size_effect(), r.by_size,
                          0, 2, false));
  c.push_back(order_claim("Fig19", pd::training_effect(), r.by_training, 0,
                          3, false));
  return b;
}

FigureBlock figures20_21(const Results& r) {
  FigureBlock b{
      "Figures 20-21: factor effects on optimization score (mean correct /3)",
      factor_chart("Figure 20: optimization score by area (mean correct /3)",
                   r.by_area, true) +
          factor_chart(
              "Figure 21: optimization score by role (mean correct /3)",
              r.by_role, true),
      {}, 2};
  auto& c = b.claims;
  level_claims(c, "Fig20", pd::area_effect(), r.by_area, r.sd[4], true);
  level_claims(c, "Fig21", pd::role_effect(), r.by_role, r.sd[4], true);
  // CS above PhysSci; main-role software engineers above developers in
  // support of another role.
  c.push_back(order_claim("Fig20", pd::area_effect(), r.by_area, 4, 2, true));
  c.push_back(order_claim("Fig21", pd::role_effect(), r.by_role, 2, 0, true));
  return b;
}

std::string suspicion_chart(const char* title,
                            const SuspicionDistributions& dists) {
  const std::vector<std::string> levels{"1", "2", "3", "4", "5"};
  std::vector<rp::GroupedSeries> series;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    series.push_back(
        {quiz::suspicion_item_label(static_cast<quiz::SuspicionItemId>(c)),
         {}});
    for (int level = 1; level <= 5; ++level) {
      series.back().values.push_back(dists[c].percent(level));
    }
  }
  return rp::section(title, rp::grouped_series_chart(levels, series));
}

// Smallest gap of the expert ordering Invalid > Overflow > rest in mean
// suspicion level; the ordering holds when it is positive.
double ordering_margin(const SuspicionDistributions& dists) {
  const auto mean = summarize_suspicion(dists).mean_level;
  const auto invalid =
      static_cast<std::size_t>(quiz::SuspicionItemId::kInvalid);
  const auto overflow =
      static_cast<std::size_t>(quiz::SuspicionItemId::kOverflow);
  double rest = 0.0;
  for (std::size_t c = 0; c < mean.size(); ++c) {
    if (c != invalid && c != overflow) rest = std::max(rest, mean[c]);
  }
  return std::min(mean[invalid] - mean[overflow], mean[overflow] - rest);
}

FigureBlock figure22(const Results& r) {
  const auto targets = pd::suspicion_targets();
  SuspicionDistributions paper_main, paper_students;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    paper_main[i] = stats::LikertDistribution(targets[i].percent_main);
    paper_students[i] = stats::LikertDistribution(targets[i].percent_students);
  }
  FigureBlock b{
      "Figure 22: suspicion distributions (percent)",
      suspicion_chart("Figure 22(a): main group, % per suspicion level",
                      r.main_suspicion) +
          suspicion_chart("Figure 22(b): student group, % per suspicion level",
                          r.student_suspicion),
      {}, 1};
  auto& c = b.claims;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::string cond(targets[i].condition);
    for (int level = 1; level <= 5; ++level) {
      const std::string l = " L" + std::to_string(level);
      c.push_back(percent_claim("22a " + cond + l,
                                targets[i].percent_main[level - 1],
                                r.main_suspicion[i].percent(level), r.main_n));
      c.push_back(percent_claim("22b " + cond + l,
                                targets[i].percent_students[level - 1],
                                r.student_suspicion[i].percent(level),
                                r.student_n));
    }
  }
  const auto invalid =
      static_cast<std::size_t>(quiz::SuspicionItemId::kInvalid);
  const auto below_max = [&](const SuspicionDistributions& d) {
    return 100.0 * d[invalid].proportion_below_max();
  };
  c.push_back(percent_claim("22a Invalid below max suspicion",
                            below_max(paper_main),
                            below_max(r.main_suspicion), r.main_n));
  c.push_back(percent_claim("22b Invalid below max suspicion",
                            below_max(paper_students),
                            below_max(r.student_suspicion), r.student_n));
  const auto ordering = [&](const char* name, double paper, double measured,
                            std::size_t n) {
    c.push_back(shape_claim(name, paper, measured, measured > 0.0, n));
  };
  ordering("22a ordering Invalid > Overflow > rest (smallest mean-level gap)",
           ordering_margin(paper_main), ordering_margin(r.main_suspicion),
           r.main_n);
  ordering("22b ordering Invalid > Overflow > rest (smallest mean-level gap)",
           ordering_margin(paper_students),
           ordering_margin(r.student_suspicion), r.student_n);
  const auto mean = [](const SuspicionDistributions& d,
                       quiz::SuspicionItemId item) {
    return d[static_cast<std::size_t>(item)].mean_level();
  };
  for (const auto item :
       {quiz::SuspicionItemId::kUnderflow, quiz::SuspicionItemId::kDenorm}) {
    ordering(("22 students less suspicious of " +
              quiz::suspicion_item_label(item) +
              " (main - student mean level)")
                 .c_str(),
             mean(paper_main, item) - mean(paper_students, item),
             mean(r.main_suspicion, item) - mean(r.student_suspicion, item),
             std::min(r.main_n, r.student_n));
  }
  return b;
}

}  // namespace

FigureAccumulator::FigureAccumulator()
    : core_key_(quiz::standard_core_truths()),
      opt_key_(quiz::standard_opt_truths()),
      core_avg_(AverageTallyAccumulator::core(core_key_)),
      opt_avg_(AverageTallyAccumulator::opt_tf(opt_key_)),
      core_hist_(core_key_),
      core_breakdown_(BreakdownAccumulator::core(core_key_)),
      opt_breakdown_(BreakdownAccumulator::opt(opt_key_)),
      by_size_(FactorLevelAccumulator::by_contributed_size(core_key_,
                                                           opt_key_)),
      by_area_(FactorLevelAccumulator::by_area_group(core_key_, opt_key_)),
      by_role_(FactorLevelAccumulator::by_role(core_key_, opt_key_)),
      by_training_(FactorLevelAccumulator::by_formal_training(core_key_,
                                                              opt_key_)) {
  for (const auto& table : kBackground) {
    if (table.single != nullptr) {
      single_.emplace_back(table.paper(), table.single);
    } else {
      multi_.emplace_back(table.paper(), table.multi);
    }
  }
}

void FigureAccumulator::add(const SurveyRecord& record) {
  for (auto& acc : single_) acc.add(record);
  for (auto& acc : multi_) acc.add(record);
  core_avg_.add(record);
  opt_avg_.add(record);
  core_hist_.add(record);
  core_breakdown_.add(record);
  opt_breakdown_.add(record);
  by_size_.add(record);
  by_area_.add(record);
  by_role_.add(record);
  by_training_.add(record);
  main_suspicion_.add(record);
  const auto core = quiz::score_core(record.core, core_key_);
  const auto opt = quiz::score_opt_tf(record.opt, opt_key_);
  const std::array<std::size_t, 8> tallies{
      core.correct, core.incorrect, core.dont_know, core.unanswered,
      opt.correct,  opt.incorrect,  opt.dont_know,  opt.unanswered};
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    tallies_[k].push_back(static_cast<double>(tallies[k]));
  }
}

void FigureAccumulator::add(const StudentRecord& record) noexcept {
  student_suspicion_.add(record);
}

std::vector<FigureBlock> FigureAccumulator::finish() const {
  Results r;
  r.main_n = core_avg_.respondents();
  r.student_n = student_suspicion_.respondents();
  std::size_t single = 0, multi = 0;
  for (std::size_t fig = 0; fig < kBackground.size(); ++fig) {
    r.background[fig] = kBackground[fig].single != nullptr
                            ? single_[single++].finish()
                            : multi_[multi++].finish();
  }
  r.core_avg = core_avg_.finish();
  r.opt_avg = opt_avg_.finish();
  for (std::size_t k = 0; k < tallies_.size(); ++k) {
    r.sd[k] = stats::sample_stddev(tallies_[k]);
  }
  r.core_scores = tallies_[0];
  r.core_hist = core_hist_.finish();
  r.core_breakdown = core_breakdown_.finish();
  r.opt_breakdown = opt_breakdown_.finish();
  r.by_size = by_size_.finish();
  r.by_area = by_area_.finish();
  r.by_role = by_role_.finish();
  r.by_training = by_training_.finish();
  r.main_suspicion = main_suspicion_.finish();
  r.student_suspicion = student_suspicion_.finish();

  std::vector<FigureBlock> blocks;
  background_blocks(r, blocks);
  blocks.push_back(figure12(r));
  blocks.push_back(figure13(r));
  blocks.push_back(figure14(r));
  blocks.push_back(figure15(r));
  blocks.push_back(figures16_19(r));
  blocks.push_back(figures20_21(r));
  blocks.push_back(figure22(r));
  return blocks;
}

}  // namespace fpq::survey
