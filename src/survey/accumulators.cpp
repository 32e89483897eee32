#include "survey/accumulators.hpp"

#include <stdexcept>
#include <utility>

namespace fpq::survey {

namespace {

AverageTally divide_tally(const std::array<std::size_t, 4>& slots,
                          std::size_t n) noexcept {
  AverageTally avg;
  if (n == 0) return avg;
  const auto dn = static_cast<double>(n);
  avg.correct = static_cast<double>(slots[0]) / dn;
  avg.incorrect = static_cast<double>(slots[1]) / dn;
  avg.dont_know = static_cast<double>(slots[2]) / dn;
  avg.unanswered = static_cast<double>(slots[3]) / dn;
  return avg;
}

std::vector<std::string> labels_from(
    std::span<const fpq::paperdata::FactorLevelTarget> targets) {
  std::vector<std::string> out;
  out.reserve(targets.size());
  for (const auto& t : targets) out.emplace_back(t.label);
  return out;
}

[[noreturn]] void throw_mismatch(const char* who) {
  throw std::invalid_argument(std::string(who) +
                              ": configuration mismatch");
}

}  // namespace

// -- FrequencyAccumulator -------------------------------------------------

FrequencyAccumulator::FrequencyAccumulator(
    std::span<const fpq::paperdata::CategoryCount> categories,
    FieldSelector selector)
    : categories_(categories),
      selector_(selector),
      counts_(categories.size(), 0) {}

void FrequencyAccumulator::add(const SurveyRecord& record) noexcept {
  const std::size_t idx = selector_(record);
  if (idx < counts_.size()) ++counts_[idx];
  ++total_;
}

void FrequencyAccumulator::merge(FrequencyAccumulator&& other) {
  if (categories_.data() != other.categories_.data() ||
      categories_.size() != other.categories_.size() ||
      selector_ != other.selector_) {
    throw_mismatch("FrequencyAccumulator::merge");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::vector<TableRow> FrequencyAccumulator::finish() const {
  std::vector<TableRow> rows(categories_.size());
  const auto total = static_cast<double>(total_);
  for (std::size_t i = 0; i < categories_.size(); ++i) {
    rows[i].label = std::string(categories_[i].label);
    rows[i].n = counts_[i];
    rows[i].percent =
        total > 0 ? 100.0 * static_cast<double>(counts_[i]) / total : 0.0;
  }
  return rows;
}

// -- MultiSelectAccumulator -----------------------------------------------

MultiSelectAccumulator::MultiSelectAccumulator(
    std::span<const fpq::paperdata::CategoryCount> categories,
    ListSelector selector)
    : categories_(categories),
      selector_(selector),
      counts_(categories.size(), 0) {}

void MultiSelectAccumulator::add(const SurveyRecord& record) noexcept {
  for (std::size_t idx : selector_(record)) {
    if (idx < counts_.size()) ++counts_[idx];
  }
  ++total_;
}

void MultiSelectAccumulator::merge(MultiSelectAccumulator&& other) {
  if (categories_.data() != other.categories_.data() ||
      categories_.size() != other.categories_.size() ||
      selector_ != other.selector_) {
    throw_mismatch("MultiSelectAccumulator::merge");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::vector<TableRow> MultiSelectAccumulator::finish() const {
  std::vector<TableRow> rows(categories_.size());
  const auto total = static_cast<double>(total_);
  for (std::size_t i = 0; i < categories_.size(); ++i) {
    rows[i].label = std::string(categories_[i].label);
    rows[i].n = counts_[i];
    rows[i].percent =
        total > 0 ? 100.0 * static_cast<double>(counts_[i]) / total : 0.0;
  }
  return rows;
}

// -- AverageTallyAccumulator ----------------------------------------------

AverageTallyAccumulator AverageTallyAccumulator::core(
    const CoreKey& key) noexcept {
  AverageTallyAccumulator acc;
  acc.kind_ = Kind::kCore;
  acc.core_key_ = key;
  return acc;
}

AverageTallyAccumulator AverageTallyAccumulator::opt_tf(
    const OptKey& key) noexcept {
  AverageTallyAccumulator acc;
  acc.kind_ = Kind::kOptTf;
  acc.opt_key_ = key;
  return acc;
}

void AverageTallyAccumulator::add(const SurveyRecord& record) noexcept {
  if (kind_ == Kind::kCore) {
    quiz::add_grades(counts_, record.core.answers, core_key_);
  } else {
    quiz::add_grades(counts_, record.opt.tf_answers, opt_key_);
  }
  ++n_;
}

void AverageTallyAccumulator::merge(AverageTallyAccumulator&& other) {
  if (kind_ != other.kind_ || core_key_ != other.core_key_ ||
      opt_key_ != other.opt_key_) {
    throw_mismatch("AverageTallyAccumulator::merge");
  }
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    counts_[k] += other.counts_[k];
  }
  n_ += other.n_;
}

AverageTally AverageTallyAccumulator::finish() const noexcept {
  return divide_tally(counts_, n_);
}

// -- ScoreHistogramAccumulator --------------------------------------------

ScoreHistogramAccumulator::ScoreHistogramAccumulator(
    const CoreKey& key) noexcept
    : key_(key), hist_(0, static_cast<int>(quiz::kCoreQuestionCount)) {}

void ScoreHistogramAccumulator::add(const SurveyRecord& record) noexcept {
  std::array<std::size_t, quiz::kGradeCount> slots{};
  quiz::add_grades(slots, record.core.answers, key_);
  hist_.add(static_cast<int>(slots[0]));
}

void ScoreHistogramAccumulator::merge(ScoreHistogramAccumulator&& other) {
  if (key_ != other.key_) throw_mismatch("ScoreHistogramAccumulator::merge");
  hist_.merge(other.hist_);
}

// -- BreakdownAccumulator -------------------------------------------------

BreakdownAccumulator BreakdownAccumulator::core(const CoreKey& key) {
  BreakdownAccumulator acc;
  acc.kind_ = Kind::kCore;
  acc.core_key_ = key;
  acc.questions_.resize(quiz::kCoreQuestionCount);
  return acc;
}

BreakdownAccumulator BreakdownAccumulator::opt(const OptKey& key) {
  BreakdownAccumulator acc;
  acc.kind_ = Kind::kOpt;
  acc.opt_key_ = key;
  acc.questions_.resize(quiz::kOptQuestionCount);
  return acc;
}

void BreakdownAccumulator::add(const SurveyRecord& record) noexcept {
  if (kind_ == Kind::kCore) {
    for (std::size_t q = 0; q < quiz::kCoreQuestionCount; ++q) {
      ++questions_[q].g[quiz::grade_slot(record.core.answers[q],
                                         core_key_[q])];
    }
  } else {
    // Paper row order: MADD, Flush to Zero, Standard-compliant Level,
    // Fast-math; the T/F sheet holds [MADD, FlushToZero, FastMath].
    const auto& tf = record.opt.tf_answers;
    ++questions_[0].g[quiz::grade_slot(tf[0], opt_key_[0])];
    ++questions_[1].g[quiz::grade_slot(tf[1], opt_key_[1])];
    ++questions_[2].g[static_cast<std::size_t>(
        quiz::grade_level_choice(record.opt.level_choice))];
    ++questions_[3].g[quiz::grade_slot(tf[2], opt_key_[2])];
  }
  ++n_;
}

void BreakdownAccumulator::merge(BreakdownAccumulator&& other) {
  if (kind_ != other.kind_ || core_key_ != other.core_key_ ||
      opt_key_ != other.opt_key_ ||
      questions_.size() != other.questions_.size()) {
    throw_mismatch("BreakdownAccumulator::merge");
  }
  for (std::size_t q = 0; q < questions_.size(); ++q) {
    for (std::size_t k = 0; k < 4; ++k) {
      questions_[q].g[k] += other.questions_[q].g[k];
    }
  }
  n_ += other.n_;
}

std::vector<BreakdownRow> BreakdownAccumulator::finish() const {
  std::vector<BreakdownRow> rows(questions_.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    rows[q].label =
        kind_ == Kind::kCore
            ? quiz::core_question_label(static_cast<quiz::CoreQuestionId>(q))
            : quiz::opt_question_label(static_cast<quiz::OptQuestionId>(q));
  }
  if (n_ == 0) return rows;
  const auto scale = 100.0 / static_cast<double>(n_);
  for (std::size_t q = 0; q < rows.size(); ++q) {
    rows[q].pct_correct = static_cast<double>(questions_[q].g[0]) * scale;
    rows[q].pct_incorrect = static_cast<double>(questions_[q].g[1]) * scale;
    rows[q].pct_dont_know = static_cast<double>(questions_[q].g[2]) * scale;
    rows[q].pct_unanswered = static_cast<double>(questions_[q].g[3]) * scale;
  }
  return rows;
}

// -- FactorLevelAccumulator -----------------------------------------------

FactorLevelAccumulator::FactorLevelAccumulator(std::vector<std::string> labels,
                                               BucketFn bucket,
                                               const CoreKey& core_key,
                                               const OptKey& opt_key)
    : labels_(std::move(labels)),
      bucket_(bucket),
      core_key_(core_key),
      opt_key_(opt_key),
      levels_(labels_.size()) {}

FactorLevelAccumulator FactorLevelAccumulator::by_contributed_size(
    const CoreKey& core_key, const OptKey& opt_key) {
  return FactorLevelAccumulator(
      labels_from(fpq::paperdata::contributed_size_effect()),
      [](const SurveyRecord& r) {
        return contributed_size_bin(r.background.contributed_size);
      },
      core_key, opt_key);
}

FactorLevelAccumulator FactorLevelAccumulator::by_area_group(
    const CoreKey& core_key, const OptKey& opt_key) {
  return FactorLevelAccumulator(
      labels_from(fpq::paperdata::area_effect()),
      [](const SurveyRecord& r) {
        return static_cast<std::size_t>(area_group_of(r.background.area));
      },
      core_key, opt_key);
}

FactorLevelAccumulator FactorLevelAccumulator::by_role(const CoreKey& core_key,
                                                       const OptKey& opt_key) {
  return FactorLevelAccumulator(
      labels_from(fpq::paperdata::role_effect()),
      [](const SurveyRecord& r) { return role_index(r.background.dev_role); },
      core_key, opt_key);
}

FactorLevelAccumulator FactorLevelAccumulator::by_formal_training(
    const CoreKey& core_key, const OptKey& opt_key) {
  return FactorLevelAccumulator(
      labels_from(fpq::paperdata::training_effect()),
      [](const SurveyRecord& r) {
        return training_index(r.background.formal_training);
      },
      core_key, opt_key);
}

void FactorLevelAccumulator::add(const SurveyRecord& record) noexcept {
  const std::size_t bucket = bucket_(record);
  if (bucket >= levels_.size()) return;
  LevelPartial& level = levels_[bucket];
  ++level.n;
  quiz::add_grades(level.core, record.core.answers, core_key_);
  quiz::add_grades(level.opt, record.opt.tf_answers, opt_key_);
}

void FactorLevelAccumulator::merge(FactorLevelAccumulator&& other) {
  if (bucket_ != other.bucket_ || labels_ != other.labels_ ||
      core_key_ != other.core_key_ || opt_key_ != other.opt_key_) {
    throw_mismatch("FactorLevelAccumulator::merge");
  }
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].n += other.levels_[level].n;
    for (std::size_t k = 0; k < 4; ++k) {
      levels_[level].core[k] += other.levels_[level].core[k];
      levels_[level].opt[k] += other.levels_[level].opt[k];
    }
  }
}

std::vector<FactorLevelResult> FactorLevelAccumulator::finish() const {
  std::vector<FactorLevelResult> out(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    out[i].label = labels_[i];
    out[i].n = levels_[i].n;
    out[i].core = divide_tally(levels_[i].core, levels_[i].n);
    out[i].opt = divide_tally(levels_[i].opt, levels_[i].n);
  }
  return out;
}

// -- SuspicionAccumulator -------------------------------------------------

void SuspicionAccumulator::add_levels(
    const std::array<int, quiz::kSuspicionItemCount>& levels) noexcept {
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    acc_[c].add(levels[c]);
  }
  ++n_;
}

void SuspicionAccumulator::merge(SuspicionAccumulator&& other) noexcept {
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    acc_[c].merge(other.acc_[c]);
  }
  n_ += other.n_;
}

SuspicionDistributions SuspicionAccumulator::finish() const {
  SuspicionDistributions out;
  for (std::size_t c = 0; c < quiz::kSuspicionItemCount; ++c) {
    if (acc_[c].total() > 0) out[c] = acc_[c].distribution();
  }
  return out;
}

}  // namespace fpq::survey
