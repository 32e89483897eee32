#include "fpmon/flow.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cfenv>
#include <cstring>

#include "fpmon/hardware.hpp"
#include "parallel/hash.hpp"

#if defined(__GLIBC__) && defined(__x86_64__) && defined(__linux__)
#define FPQ_TRAP_CAPABLE 1
#include <signal.h>
#include <ucontext.h>
#else
#define FPQ_TRAP_CAPABLE 0
#endif

namespace fpq::mon {

namespace {

using parallel::hash_combine;

unsigned pack_conditions(const ConditionSet& set) noexcept {
  unsigned bits = 0;
  for (std::size_t i = 0; i < kConditionCount; ++i) {
    if (set.test(static_cast<Condition>(i))) bits |= 1u << i;
  }
  return bits;
}

ConditionSet unpack_conditions(unsigned bits) noexcept {
  ConditionSet set;
  for (std::size_t i = 0; i < kConditionCount; ++i) {
    if ((bits & (1u << i)) != 0) set.set(static_cast<Condition>(i));
  }
  return set;
}

}  // namespace

ValueClass classify(double x) noexcept {
  // Pure bit inspection: an FPU comparison against x could raise the very
  // flags (invalid on signaling NaN, denormal-operand) being monitored.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t magnitude = bits & 0x7FFFFFFFFFFFFFFFULL;
  if (magnitude < 0x7FF0000000000000ULL) return ValueClass::kFinite;
  if (magnitude > 0x7FF0000000000000ULL) return ValueClass::kNaN;
  return (bits >> 63) != 0 ? ValueClass::kNegInf : ValueClass::kPosInf;
}

std::string value_class_name(ValueClass c) {
  switch (c) {
    case ValueClass::kFinite:
      return "finite";
    case ValueClass::kPosInf:
      return "+inf";
    case ValueClass::kNegInf:
      return "-inf";
    case ValueClass::kNaN:
      return "nan";
  }
  return "unknown";
}

std::uint8_t flow_signature(ValueClass a, ValueClass b, ValueClass c,
                            ValueClass result) noexcept {
  return static_cast<std::uint8_t>(
      static_cast<unsigned>(a) | (static_cast<unsigned>(b) << 2) |
      (static_cast<unsigned>(c) << 4) | (static_cast<unsigned>(result) << 6));
}

bool signature_has_exceptional(std::uint8_t signature) noexcept {
  for (unsigned slot = 0; slot < 4; ++slot) {
    if (((signature >> (2 * slot)) & 0x3u) != 0) return true;
  }
  return false;
}

// -- FlowLedger --------------------------------------------------------------

FlowLedger::FlowLedger(std::size_t max_sites)
    : max_sites_(max_sites == 0 ? 1 : max_sites) {}

SiteFlow* FlowLedger::site_for(std::uint64_t tag) {
  // Tags arrive in (call, op) order, so the common case appends; cmp/neg
  // auxiliary tags can interleave backwards, hence the binary-search
  // fallback.
  if (!sites_.empty() && sites_.back().tag == tag) return &sites_.back();
  if (sites_.empty() || tag > sites_.back().tag) {
    if (sites_.size() >= max_sites_) {
      summary_.dropped_sites += 1;
      return nullptr;
    }
    sites_.push_back(SiteFlow{tag});
    return &sites_.back();
  }
  const auto it = std::lower_bound(
      sites_.begin(), sites_.end(), tag,
      [](const SiteFlow& s, std::uint64_t t) { return s.tag < t; });
  if (it != sites_.end() && it->tag == tag) return &*it;
  if (sites_.size() >= max_sites_) {
    summary_.dropped_sites += 1;
    return nullptr;
  }
  return &*sites_.insert(it, SiteFlow{tag});
}

const SiteFlow* FlowLedger::site(std::uint64_t tag) const noexcept {
  const auto it = std::lower_bound(
      sites_.begin(), sites_.end(), tag,
      [](const SiteFlow& s, std::uint64_t t) { return s.tag < t; });
  return it != sites_.end() && it->tag == tag ? &*it : nullptr;
}

void FlowLedger::record_exceptional_op(std::uint64_t tag, ValueClass a,
                                       ValueClass b, ValueClass c,
                                       ValueClass result) {
  summary_.ops += 1;
  summary_.exceptional_ops += 1;
  const bool operand_exceptional =
      is_exceptional(a) || is_exceptional(b) || is_exceptional(c);
  const bool result_exceptional = is_exceptional(result);

  SiteFlow* site = site_for(tag);
  if (site != nullptr) {
    if (site->events == 0) site->signature = flow_signature(a, b, c, result);
    site->events += 1;
  }
  if (!operand_exceptional) {
    summary_.born += 1;
    if (site != nullptr) site->born += 1;
  } else if (result_exceptional) {
    summary_.propagated += 1;
    if (site != nullptr) site->propagated += 1;
  } else {
    summary_.killed += 1;
    if (site != nullptr) site->killed += 1;
  }
}

void FlowLedger::record_swallow(std::uint64_t tag) {
  summary_.swallows += 1;
  if (SiteFlow* site = site_for(tag); site != nullptr) site->swallows += 1;
}

void FlowLedger::record_seam(const ConditionSet& conditions) {
  summary_.seam_samples += 1;
  seam_conditions_.merge(conditions);
}

void FlowLedger::record_seam_batch(const ConditionSet& conditions,
                                   std::uint64_t samples) {
  summary_.seam_samples += samples;
  seam_conditions_.merge(conditions);
}

void FlowLedger::record_trap(const TrapEvent& event) {
  summary_.trap_events += 1;
  traps_.push_back(event);
}

void FlowLedger::merge(FlowLedger&& other) {
  std::vector<SiteFlow> merged;
  merged.reserve(std::min(sites_.size() + other.sites_.size(), max_sites_));
  std::size_t i = 0, j = 0;
  std::uint64_t dropped = 0;
  auto push = [&](SiteFlow&& s) {
    if (merged.size() < max_sites_) {
      merged.push_back(std::move(s));
    } else {
      dropped += 1;
    }
  };
  while (i < sites_.size() || j < other.sites_.size()) {
    if (j >= other.sites_.size() ||
        (i < sites_.size() && sites_[i].tag < other.sites_[j].tag)) {
      push(std::move(sites_[i++]));
    } else if (i >= sites_.size() || other.sites_[j].tag < sites_[i].tag) {
      push(std::move(other.sites_[j++]));
    } else {
      SiteFlow& l = sites_[i++];
      const SiteFlow& r = other.sites_[j++];
      // Symmetric signature pick, so merge order cannot matter even for
      // the (pathological) case of diverging signatures at one tag.
      l.signature = l.events == 0   ? r.signature
                    : r.events == 0 ? l.signature
                                    : std::min(l.signature, r.signature);
      l.events += r.events;
      l.born += r.born;
      l.propagated += r.propagated;
      l.killed += r.killed;
      l.swallows += r.swallows;
      push(std::move(l));
    }
  }
  sites_ = std::move(merged);

  summary_.ops += other.summary_.ops;
  summary_.exceptional_ops += other.summary_.exceptional_ops;
  summary_.born += other.summary_.born;
  summary_.propagated += other.summary_.propagated;
  summary_.killed += other.summary_.killed;
  summary_.swallows += other.summary_.swallows;
  summary_.flag_samples += other.summary_.flag_samples;
  summary_.seam_samples += other.summary_.seam_samples;
  summary_.trap_events += other.summary_.trap_events;
  summary_.dropped_sites += other.summary_.dropped_sites + dropped;

  seam_conditions_.merge(other.seam_conditions_);
  traps_.insert(traps_.end(), other.traps_.begin(), other.traps_.end());
  // Cross-chunk flag continuity is meaningless (each shard sampled its
  // own evaluator), so the merged ledger starts a fresh sample window.
  last_flags_ = 0;
}

std::uint64_t FlowLedger::fingerprint() const noexcept {
  std::uint64_t h = hash_combine(0xF10F10ULL, sites_.size());
  for (const SiteFlow& s : sites_) {
    h = hash_combine(h, s.tag);
    h = hash_combine(h, s.signature);
    h = hash_combine(h, s.events);
    h = hash_combine(h, s.born);
    h = hash_combine(h, s.propagated);
    h = hash_combine(h, s.killed);
    h = hash_combine(h, s.swallows);
  }
  h = hash_combine(h, summary_.ops);
  h = hash_combine(h, summary_.exceptional_ops);
  h = hash_combine(h, summary_.born);
  h = hash_combine(h, summary_.propagated);
  h = hash_combine(h, summary_.killed);
  h = hash_combine(h, summary_.swallows);
  h = hash_combine(h, summary_.flag_samples);
  h = hash_combine(h, summary_.seam_samples);
  h = hash_combine(h, summary_.dropped_sites);
  h = hash_combine(h, pack_conditions(seam_conditions_));
  return h;
}

std::uint64_t FlowReport::fingerprint() const noexcept {
  return hash_combine(ledger.fingerprint(), pack_conditions(conditions));
}

// -- Host fenv harvest (read-only) ------------------------------------------

ConditionSet current_fenv_conditions() noexcept {
  return ConditionSet::from_softfloat_flags(sticky_flags());
}

// -- Trap machinery ----------------------------------------------------------

bool trap_supported() noexcept {
#if !FPQ_TRAP_CAPABLE
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes own the synchronous-signal plumbing; arming real
  // FP traps under them is not a supported configuration, and saying so
  // beats corrupting their handlers.
  return false;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#endif
#endif
  return true;
#endif
}

#if FPQ_TRAP_CAPABLE

namespace {

// The trapped kinds: the three conditions that are nearly always bugs.
// Underflow/inexact fire on practically every kernel and belong to the
// sampling path, not the trap path.
constexpr int kTrapExcepts = FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW;

/// Per-thread lock-free trap ring. The handler writes, stop() drains on
/// the same thread; relaxed atomics order the count against the slot
/// writes for the (theoretical) nested-signal case.
struct TrapRing {
  static constexpr std::uint32_t kCapacity = 64;
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint32_t> lost{0};
  std::array<TrapEvent, kCapacity> events{};
};

thread_local TrapRing t_trap_ring;
std::atomic<bool> g_trap_session{false};
struct sigaction g_saved_sigfpe;

Condition condition_from_si_code(int code) noexcept {
  switch (code) {
    case FPE_FLTDIV:
      return Condition::kDivByZero;
    case FPE_FLTOVF:
      return Condition::kOverflow;
    case FPE_FLTUND:
      return Condition::kUnderflow;
    case FPE_FLTRES:
      return Condition::kPrecision;
    default:
      return Condition::kInvalid;
  }
}

// MXCSR exception MASK bits (Intel SDM Vol. 1 §10.2.3): IM..PM at 7..12.
std::uint32_t mxcsr_mask_for(int code) noexcept {
  switch (code) {
    case FPE_FLTINV:
      return 1u << 7;
    case FPE_FLTDIV:
      return 1u << 9;
    case FPE_FLTOVF:
      return 1u << 10;
    case FPE_FLTUND:
      return 1u << 11;
    case FPE_FLTRES:
      return 1u << 12;
    default:
      return 0x1F80u;  // unknown kind: mask everything, keep running
  }
}

// x87 control-word mask bits: IM..PM at 0..5 (bit 1 is DM).
std::uint16_t x87_mask_for(int code) noexcept {
  switch (code) {
    case FPE_FLTINV:
      return 1u << 0;
    case FPE_FLTDIV:
      return 1u << 2;
    case FPE_FLTOVF:
      return 1u << 3;
    case FPE_FLTUND:
      return 1u << 4;
    case FPE_FLTRES:
      return 1u << 5;
    default:
      return 0x3Fu;
  }
}

extern "C" void fpq_sigfpe_handler(int /*signo*/, siginfo_t* info,
                                   void* context) {
  // ASYNC-SIGNAL-SAFE BY CONSTRUCTION: fixed thread_local storage and
  // ucontext field writes only — no allocation, no locks, no library
  // calls, no errno.
  const int code = info != nullptr ? info->si_code : 0;
  TrapRing& ring = t_trap_ring;
  const std::uint32_t n = ring.count.load(std::memory_order_relaxed);
  if (n < TrapRing::kCapacity) {
    ring.events[n].pc =
        info != nullptr ? reinterpret_cast<std::uintptr_t>(info->si_addr)
                        : 0;
    ring.events[n].condition = condition_from_si_code(code);
    ring.count.store(n + 1, std::memory_order_release);
  } else {
    ring.lost.fetch_add(1, std::memory_order_relaxed);
  }
  // Re-mask the trapped kind in the interrupted context so the faulting
  // instruction re-executes under masked (sticky-flag) semantics and the
  // program CONTINUES: first-trap-per-kind capture, not termination.
  auto* uc = static_cast<ucontext_t*>(context);
  if (uc != nullptr && uc->uc_mcontext.fpregs != nullptr) {
    uc->uc_mcontext.fpregs->mxcsr |= mxcsr_mask_for(code);
    uc->uc_mcontext.fpregs->cwd =
        static_cast<std::uint16_t>(uc->uc_mcontext.fpregs->cwd |
                                   x87_mask_for(code));
  }
}

}  // namespace

void FlowMonitor::start_trap() noexcept {
  if (!trap_supported()) {
    capability_.degradation =
        "traps unavailable (needs glibc/x86-64/Linux, non-sanitizer "
        "build); degraded to sampling";
    return;
  }
  bool expected = false;
  if (!g_trap_session.compare_exchange_strong(expected, true)) {
    capability_.degradation =
        "another trap session is active; degraded to sampling";
    return;
  }
  t_trap_ring.count.store(0, std::memory_order_relaxed);
  t_trap_ring.lost.store(0, std::memory_order_relaxed);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &fpq_sigfpe_handler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGFPE, &action, &g_saved_sigfpe) != 0) {
    g_trap_session.store(false);
    capability_.degradation =
        "sigaction(SIGFPE) failed; degraded to sampling";
    return;
  }
  // Pending sticky flags would re-trap at the next x87 instruction once
  // unmasked; the enclosing ScopedMonitor already cleared them, but clear
  // again so the unmask starts from a provably clean slate.
  std::feclearexcept(FE_ALL_EXCEPT);
  trap_enabled_excepts_ = feenableexcept(kTrapExcepts) >= 0 ? kTrapExcepts : 0;
  if (trap_enabled_excepts_ == 0) {
    sigaction(SIGFPE, &g_saved_sigfpe, nullptr);
    g_trap_session.store(false);
    capability_.degradation =
        "feenableexcept failed; degraded to sampling";
    return;
  }
  trap_session_ = true;
  capability_.trap_active = true;
}

void FlowMonitor::stop_trap() noexcept {
  if (!trap_session_) return;
  fedisableexcept(trap_enabled_excepts_);
  sigaction(SIGFPE, &g_saved_sigfpe, nullptr);
  g_trap_session.store(false);
  const std::uint32_t n = t_trap_ring.count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n && i < TrapRing::kCapacity; ++i) {
    ledger_.record_trap(t_trap_ring.events[i]);
  }
  // Ring overflow is reported, never silent.
  ledger_.note_lost_traps(t_trap_ring.lost.load(std::memory_order_relaxed));
  trap_session_ = false;
}

#else  // !FPQ_TRAP_CAPABLE

void FlowMonitor::start_trap() noexcept {
  capability_.degradation =
      "traps unavailable (needs glibc/x86-64/Linux); degraded to sampling";
}

void FlowMonitor::stop_trap() noexcept {}

#endif

void FlowLedger::note_lost_traps(std::uint64_t lost) noexcept {
  summary_.trap_events += lost;
  summary_.dropped_sites += lost;
}

// -- FlowMonitor -------------------------------------------------------------

FlowMonitor::FlowMonitor(const FlowOptions& options)
    : ledger_(options.max_sites) {
  capability_.trap_supported = trap_supported();
  capability_.tracks_denormals = scoped_.tracks_denormals();
  if (options.mode == FlowMode::kTrap) start_trap();
  if (options.collect_seams) {
    if (FlowCollector::acquire()) {
      seam_session_ = true;
      capability_.seam_collector = true;
    } else {
      if (!capability_.degradation.empty()) capability_.degradation += "; ";
      capability_.degradation +=
          "seam collector already held by another monitor";
    }
  }
  prev_ = t_top_;
  t_top_ = this;
}

const FlowReport& FlowMonitor::stop() & noexcept {
  if (stopped_) return report_;
  stopped_ = true;
  // Unlink from the per-thread stack first, so no event reaches a stopped
  // monitor (LIFO in RAII use; defensive walk otherwise so an
  // out-of-order stop can never corrupt the chain).
  if (t_top_ == this) {
    t_top_ = prev_;
  } else {
    for (FlowMonitor* m = t_top_; m != nullptr; m = m->prev_) {
      if (m->prev_ == this) {
        m->prev_ = prev_;
        break;
      }
    }
  }
  stop_trap();
  if (seam_session_) FlowCollector::release_into(ledger_);
  // The monitor's own boundary is a seam: harvest the region's condition
  // union as the final seam sample, then let the ScopedMonitor restore
  // the enclosing fenv state.
  ledger_.record_seam(scoped_.peek());
  report_.conditions = scoped_.stop();
  report_.ledger = std::move(ledger_);
  report_.capability = capability_;
  return report_;
}

FlowMonitor::~FlowMonitor() { stop(); }

void FlowMonitor::on_exceptional_op(std::uint64_t tag, double a, double b,
                                    double c, unsigned operand_count,
                                    double result) noexcept {
  const ValueClass ca =
      operand_count > 0 ? classify(a) : ValueClass::kFinite;
  const ValueClass cb =
      operand_count > 1 ? classify(b) : ValueClass::kFinite;
  const ValueClass cc =
      operand_count > 2 ? classify(c) : ValueClass::kFinite;
  const ValueClass cr = classify(result);
  for (FlowMonitor* m = t_top_; m != nullptr; m = m->prev_) {
    m->ledger_.record_exceptional_op(tag, ca, cb, cc, cr);
  }
}

void FlowMonitor::on_seam() noexcept {
  if (t_top_ == nullptr) return;
  const ConditionSet harvested = current_fenv_conditions();
  for (FlowMonitor* m = t_top_; m != nullptr; m = m->prev_) {
    m->ledger_.record_seam(harvested);
  }
}

// -- FlowCollector -----------------------------------------------------------

namespace {
std::atomic<bool> g_collector_active{false};
std::atomic<unsigned> g_collector_bits{0};
std::atomic<std::uint64_t> g_collector_samples{0};
}  // namespace

void FlowCollector::sample() noexcept {
  if (!g_collector_active.load(std::memory_order_relaxed)) return;
  const unsigned bits = pack_conditions(current_fenv_conditions());
  if (bits != 0) g_collector_bits.fetch_or(bits, std::memory_order_relaxed);
  g_collector_samples.fetch_add(1, std::memory_order_relaxed);
}

bool FlowCollector::active() noexcept {
  return g_collector_active.load(std::memory_order_relaxed);
}

bool FlowCollector::acquire() noexcept {
  bool expected = false;
  if (!g_collector_active.compare_exchange_strong(expected, true)) {
    return false;
  }
  g_collector_bits.store(0, std::memory_order_relaxed);
  g_collector_samples.store(0, std::memory_order_relaxed);
  return true;
}

void FlowCollector::release_into(FlowLedger& ledger) noexcept {
  const unsigned bits = g_collector_bits.exchange(0);
  const std::uint64_t samples = g_collector_samples.exchange(0);
  g_collector_active.store(false, std::memory_order_release);
  if (samples > 0) {
    ledger.record_seam_batch(unpack_conditions(bits), samples);
  }
}

// -- Rendering ---------------------------------------------------------------

std::string render_flow_report(const FlowReport& report) {
  const FlowSummary& s = report.ledger.summary();
  std::string out;
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  out += "flow: ops " + num(s.ops) + " (exceptional " +
         num(s.exceptional_ops) + "), born " + num(s.born) +
         ", propagated " + num(s.propagated) + ", killed " + num(s.killed) +
         ", swallows " + num(s.swallows) + "\n";
  out += "samples: flag " + num(s.flag_samples) + ", seam " +
         num(s.seam_samples) + ", trap events " + num(s.trap_events) +
         ", dropped sites " + num(s.dropped_sites) + "\n";
  out += "conditions: " + report.conditions.to_string() +
         " (seam union: " + report.ledger.seam_conditions().to_string() +
         ")\n";
  const FlowCapability& cap = report.capability;
  out += std::string("capability: trap ") +
         (cap.trap_active ? "active"
          : cap.trap_supported ? "available"
                               : "unsupported") +
         ", denormal tracking " + (cap.tracks_denormals ? "on" : "off") +
         ", seam collector " + (cap.seam_collector ? "on" : "off");
  if (!cap.degradation.empty()) out += " [" + cap.degradation + "]";
  out += "\n";

  // Per-site detail: birth/kill sites first tell the flow story; cap the
  // listing, never the data.
  std::size_t listed = 0;
  for (const SiteFlow& site : report.ledger.sites()) {
    if (site.born == 0 && site.killed == 0 && site.swallows == 0) continue;
    if (listed == 12) {
      out += "  ...\n";
      break;
    }
    out += "  site " + num(site.tag >> 20) + ":" +
           num(site.tag & 0xFFFFFULL) + " sig=" + num(site.signature) +
           " born " + num(site.born) + " propagated " +
           num(site.propagated) + " killed " + num(site.killed) +
           " swallows " + num(site.swallows) + "\n";
    ++listed;
  }
  return out;
}

}  // namespace fpq::mon
