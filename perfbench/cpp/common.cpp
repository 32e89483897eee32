#include "common.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t fold_fp(std::uint64_t h, std::uint64_t v) noexcept {
  return derive_seed(h ^ v, 0x5eed);
}

void Checks::expect(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Checks::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0 && notes_.size() < 16) {
    notes_.push_back(what + ": " + std::to_string(failed) + " of " +
                     std::to_string(attempted) + " failed");
  }
}

void Result::input(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  inputs.emplace_back(key, buf);
}

void Result::info(const std::string& key, const std::string& value) {
  run_info.emplace_back(key, value);
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit, bool computed) {
  layers.push_back({name, value, unit, computed});
}

void PatternClasses::add(std::uint32_t bits) noexcept {
  const std::uint32_t exp = (bits >> 23) & 0xFFu;
  const std::uint32_t frac = bits & 0x7FFFFFu;
  ++total;
  negative += bits >> 31;
  zero += (exp == 0 && frac == 0) ? 1 : 0;
  subnormal += (exp == 0 && frac != 0) ? 1 : 0;
  infnan += exp == 0xFFu ? 1 : 0;
}

void PatternClasses::merge(const PatternClasses& other) noexcept {
  total += other.total;
  negative += other.negative;
  zero += other.zero;
  subnormal += other.subnormal;
  infnan += other.infnan;
}

void PatternClasses::record(const std::string& prefix, Result& out) const {
  const auto share = [this](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(total);
  };
  out.input(prefix + ".negative_share", share(negative));
  out.input(prefix + ".zero_share", share(zero));
  out.input(prefix + ".subnormal_share", share(subnormal));
  out.input(prefix + ".infnan_share", share(infnan));
}

void check_fingerprints(const Options& opts, Result& out,
                        const std::vector<std::uint64_t>& fps,
                        const std::function<std::uint64_t()>& one_lane,
                        const std::string& what) {
  std::optional<std::uint64_t> single;
  if (opts.trace || !opts.pin) {
    out.single_thread_s = timed([&] { single = one_lane(); });
  }
  if (opts.pin && single) {
    out.checks.expect(*single == *opts.pin,
                      what + " 1-lane fingerprint differs from the pin");
  }
  const std::uint64_t reference = opts.pin ? *opts.pin : *single;
  std::uint64_t bad = 0;
  for (const std::uint64_t fp : fps) bad += fp != reference ? 1 : 0;
  out.checks.tally(fps.size(), bad, what + " fingerprint differs from reference");
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(reference));
  out.info("fingerprint", buf);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// -- Tracing ----------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};

struct SpanBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> records;
};

/// Owns every thread's buffer, so spans recorded on pool threads outlive
/// those threads until collect_spans() runs.
struct SpanRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
};

SpanRegistry& registry() {
  static SpanRegistry r;
  return r;
}

SpanBuffer& thread_buffer() {
  thread_local SpanBuffer* buf = [] {
    auto owned = std::make_unique<SpanBuffer>();
    owned->thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
    owned->records.reserve(1024);
    SpanBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(registry().mu);
    registry().buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

thread_local std::uint64_t t_current = 0;

bool tracing() noexcept { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_tracing(bool on) noexcept {
  g_tracing.store(on, std::memory_order_relaxed);
}

Span::Span(const char* name) noexcept : Span(name, t_current) {}

Span::Span(const char* name, std::uint64_t parent) noexcept : name_(name) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent;
  saved_current_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = saved_current_;
  SpanBuffer& buf = thread_buffer();
  buf.records.push_back({name_, id_, parent_, buf.thread, start_ns_, end});
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(registry().mu);
  for (const auto& buf : registry().buffers) {
    out.insert(out.end(), buf->records.begin(), buf->records.end());
  }
  return out;
}

// -- Process facts ------------------------------------------------------------

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t minor_faults() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
}

}  // namespace perfbench
