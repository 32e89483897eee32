// perfbench — shared plumbing for the repository benchmark's workloads:
// run options, seeded streams, correctness accounting, the result record
// perfbench/run.py post-processes, and in-memory tracing spans.
//
// Each workload measures itself; the statistics (medians, quartiles, tail
// percentiles), the end-to-end metric assembly and the run identity live
// in perfbench/harness.py, which reads the JSON record written here.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Every workload runs on one pool of this many lanes; the traced run adds
/// a 1-lane pass as the single-thread baseline.
inline constexpr std::size_t kPoolThreads = 4;

/// Set-up is repeated this many times per run and reported as a median.
inline constexpr int kSetupRounds = 11;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files a workload must write (sweep manifests).
  std::string tmp_dir = ".";
  /// Pinned result fingerprint for this (workload, seed), when known.
  std::optional<std::uint64_t> pin;
};

/// splitmix64 of (seed, stream): independent, reproducible input streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Order-sensitive 64-bit fold used for result fingerprints.
std::uint64_t fold_fp(std::uint64_t h, std::uint64_t v) noexcept;

/// Correctness accounting: every check is attempted once; a failed one is
/// counted and a few descriptions are kept for the log.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Records `attempted` checks of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// One per-layer figure; `computed` marks values derived from other
/// measurements or from input properties rather than timed directly.
struct Layer {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool computed = false;
};

/// Everything one workload process reports.
struct Result {
  std::vector<double> setup_s;
  /// Untraced timed repetitions of the workload's unit of work, and the
  /// work items each repetition completes.
  std::vector<double> rep_s;
  /// When a repetition is a fixed sequence of parts (the sweep's
  /// windows), part_s[i] holds part i's wall time in every untraced
  /// unmonitored repetition.
  std::vector<std::vector<double>> part_s;
  double items_per_rep = 0.0;
  std::string item_name;
  /// Paired monitor samples: the same unit unmonitored / monitored.
  std::vector<double> plain_s;
  std::vector<double> monitored_s;
  /// Trace mode: alternating untraced / traced repetitions and one
  /// repetition on a 1-lane pool.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double single_thread_s = 0.0;
  Checks checks;
  /// Seeded input properties, as (key, JSON value text).
  std::vector<std::pair<std::string, std::string>> inputs;
  /// Run identity details the workload knows (lanes raced, ...).
  std::vector<std::pair<std::string, std::string>> run_info;
  std::vector<Layer> layers;

  void input(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);
  void layer(const std::string& name, double value, const std::string& unit,
             bool computed = false);
};

/// Counts of binary32 encoding classes over a set of bit patterns.
struct PatternClasses {
  std::uint64_t total = 0;
  std::uint64_t negative = 0;
  std::uint64_t zero = 0;
  std::uint64_t subnormal = 0;
  std::uint64_t infnan = 0;

  void add(std::uint32_t bits) noexcept;
  void merge(const PatternClasses& other) noexcept;
  /// Records each class's share as the inputs "<prefix>.negative_share",
  /// "<prefix>.zero_share", "<prefix>.subnormal_share" and
  /// "<prefix>.infnan_share".
  void record(const std::string& prefix, Result& out) const;
};

/// Checks every repetition's result fingerprint in `fps` against the
/// reference: the pin for this seed when there is one, else `one_lane()`,
/// the same work on a 1-lane pool. A traced run always runs `one_lane`
/// and times it as the single-thread baseline (checking it against the
/// pin too). Records the reference as the run's "fingerprint".
void check_fingerprints(const Options& opts, Result& out,
                        const std::vector<std::uint64_t>& fps,
                        const std::function<std::uint64_t()>& one_lane,
                        const std::string& what);

/// Repeats `body` until `seconds` have elapsed and at least `min_iters`
/// iterations ran.
template <typename Body>
void repeat_for(double seconds, std::size_t min_iters, Body&& body) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < min_iters || since(t0) < seconds; ++i) {
    body();
  }
}

/// Times one call.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return since(t0);
}

/// Times one monitor pair — the same unit of work unmonitored and
/// monitored — into out.plain_s / out.monitored_s, alternating which runs
/// first so slow drift in machine speed cancels out of the ratio.
template <typename Plain, typename Monitored>
void time_pair(Result& out, Plain&& plain, Monitored&& monitored) {
  if (out.plain_s.size() % 2 == 0) {
    out.plain_s.push_back(timed(plain));
    out.monitored_s.push_back(timed(monitored));
  } else {
    out.monitored_s.push_back(timed(monitored));
    out.plain_s.push_back(timed(plain));
  }
}

/// Median of a sample (the statistics proper live in harness.py; the C++
/// side only needs it to reduce its own repeated probe timings).
double median(std::vector<double> xs);

// -- Tracing ----------------------------------------------------------------
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions, kept in per-thread memory buffers, and
// written out once when the run ends. Recording is off unless a traced
// repetition turned it on; an idle Span is one relaxed load.

struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void set_tracing(bool on) noexcept;

class Span {
 public:
  /// Opens a span whose parent is the innermost open span on this thread.
  explicit Span(const char* name) noexcept;
  /// Opens a span under an explicit parent (a span opened on another
  /// thread, e.g. the repetition that dispatched a pool shard).
  Span(const char* name, std::uint64_t parent) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far, from every thread, in no particular order.
std::vector<SpanRecord> collect_spans();

// -- Process facts ------------------------------------------------------------

double peak_rss_mb();
/// Minor page faults of this process so far, every thread.
std::uint64_t minor_faults();
std::string cpu_model();

// -- Workloads ----------------------------------------------------------------

void run_sweep_sqrt(const Options& opts, Result& out);
void run_batch_b32(const Options& opts, Result& out);
void run_survey_stream(const Options& opts, Result& out);
void run_gauntlet(const Options& opts, Result& out);

/// Per-layer probes: direct calls into each layer's public functions on
/// inputs derived from the run seed. The traced run of every workload
/// runs all four, so every run reports the same per-layer metric set.
void probe_sweep_layers(const Options& opts, Result& out);
void probe_batch_layers(const Options& opts, Result& out);
void probe_survey_layers(const Options& opts, Result& out);
void probe_gauntlet_layers(const Options& opts, Result& out);

}  // namespace perfbench
