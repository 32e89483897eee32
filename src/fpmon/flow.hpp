// fpq::mon — the flow-aware, always-on exception monitor.
//
// ScopedMonitor (monitor.hpp) answers "which exceptional conditions
// occurred in this region?" — the paper's §V tool. FlowMonitor answers
// the question a production monitor needs next (FlowFPX, PAPERS.md):
// where exceptional values are BORN, how they PROPAGATE, and where they
// are KILLED (compared away, overwritten, flushed) — per site, cheaply
// enough to leave on under real traffic.
//
// Two acquisition modes, degrading gracefully and REPORTING the
// degradation as an explicit capability (never a silent gap):
//
//   * Sampling (portable, the default): instrumented seams — evaluator
//     op hooks, tape-engine chunk boundaries, stream_accumulate shard
//     boundaries — push value-class events and sticky-flag samples into
//     the per-thread monitor stack. Value classification is pure bit
//     inspection (std::bit_cast), so observing a value can never raise
//     the very flags being observed.
//
//   * Trap (glibc/x86-64/Linux): feenableexcept unmasks Invalid,
//     DivByZero and Overflow; the SIGFPE handler records (PC, condition)
//     into a lock-free per-thread event ring — no allocation, no locks,
//     async-signal-safe — then RE-MASKS the trapped kind in the
//     interrupted context's MXCSR/x87 control word so execution
//     continues: first-trap-per-kind semantics with a real fault PC.
//
// The flow ledger keys events by site tag, keeps integer counters only,
// and merges by tag-ordered join — associative and commutative — so
// ledgers collected on pool shards combine through the same fixed-shape
// tree merge as the survey accumulators and the merged report is
// bit-identical at 1/2/4/8 threads.
//
// Always-on duty means bounded memory: per-site detail is capped at
// FlowOptions::max_sites; overflow increments an explicit dropped-site
// counter in the summary instead of silently forgetting.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fpmon/monitor.hpp"

namespace fpq::mon {

/// IEEE value class of a binary64, read from the bit pattern only —
/// classifying a value must never perturb the FPU state being monitored.
enum class ValueClass : std::uint8_t {
  kFinite = 0,  ///< zero, subnormal or normal
  kPosInf = 1,
  kNegInf = 2,
  kNaN = 3,
};

ValueClass classify(double x) noexcept;
constexpr bool is_exceptional(ValueClass c) noexcept {
  return c != ValueClass::kFinite;
}
/// True for an infinity or a NaN: the exponent field is all ones. The
/// one-test form of is_exceptional(classify(x)) for the emission fast
/// paths.
constexpr bool is_nonfinite(double x) noexcept {
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ULL;
  return (std::bit_cast<std::uint64_t>(x) & kExponent) == kExponent;
}
std::string value_class_name(ValueClass c);

/// Flow-site tags: the (call, op) coordinates of one operation in a
/// straight-line kernel, packed into the 64-bit ledger key. Arithmetic
/// ops use (call << 20) | op; non-arithmetic events (neg, comparisons)
/// are numbered by a separate per-call auxiliary counter and carry
/// kFlowAuxBit, so they never collide with — and always sort after — the
/// call's arithmetic sites. Kernel shapes here are tiny (ops per call
/// ≲ 35, calls ≲ thousands), so 19 op bits + aux bit + 44 call bits
/// never overflow.
inline constexpr std::uint64_t kFlowAuxBit = 1ull << 19;

constexpr std::uint64_t flow_tag(std::uint64_t call,
                                 std::uint64_t op) noexcept {
  return (call << 20) | op;
}

/// 8-bit operand/result class signature of one op event: operand slots in
/// bits 0-5 (2 bits each), result class in bits 6-7. Unused operand slots
/// read kFinite. Deterministic kernels produce the same signature for the
/// same site on every clean run, which is what lets a fault-attribution
/// pass diff an injected run's signatures against a clean baseline's.
std::uint8_t flow_signature(ValueClass a, ValueClass b, ValueClass c,
                            ValueClass result) noexcept;
bool signature_has_exceptional(std::uint8_t signature) noexcept;

/// Per-site flow counters. A site exists iff an exceptional value was
/// born, propagated or killed there, or a swallow was sampled there; an
/// all-finite op only counts in FlowSummary::ops. `signature` is the
/// FIRST exceptional event's signature at this tag (sites in
/// straight-line kernels always repeat it); a swallow-only site keeps the
/// all-finite signature 0.
struct SiteFlow {
  std::uint64_t tag = 0;
  std::uint8_t signature = 0;
  std::uint64_t events = 0;      ///< exceptional op events at this site
  std::uint64_t born = 0;        ///< exceptional result, clean operands
  std::uint64_t propagated = 0;  ///< exceptional result, exceptional operand
  std::uint64_t killed = 0;      ///< finite result, exceptional operand
  std::uint64_t swallows = 0;    ///< sticky flags vanished at this site
};

/// Whole-run flow totals (merge-additive).
struct FlowSummary {
  std::uint64_t ops = 0;
  std::uint64_t exceptional_ops = 0;  ///< any exceptional operand or result
  std::uint64_t born = 0;
  std::uint64_t propagated = 0;
  std::uint64_t killed = 0;
  std::uint64_t swallows = 0;
  std::uint64_t flag_samples = 0;
  std::uint64_t seam_samples = 0;
  std::uint64_t trap_events = 0;
  std::uint64_t dropped_sites = 0;  ///< events past the max_sites cap
};

/// One SIGFPE trap capture: the faulting instruction address and the
/// condition decoded from si_code. Recorded by the signal handler into a
/// fixed ring; drained into the ledger at stop().
struct TrapEvent {
  std::uintptr_t pc = 0;
  Condition condition = Condition::kInvalid;
};

/// The mergeable flow ledger: tag-sorted per-site counters + summary +
/// the union of seam-sampled conditions. All state is integer, so merge
/// order cannot change the result bit-for-bit.
class FlowLedger {
 public:
  explicit FlowLedger(std::size_t max_sites = kDefaultMaxSites);

  static constexpr std::size_t kDefaultMaxSites = 65536;

  /// Records one op event: operand classes (unused slots pass kFinite),
  /// result class, at site `tag`. Every event counts in summary().ops;
  /// only an event with an exceptional operand or result touches a site,
  /// classified born/propagated/killed.
  void record_op(std::uint64_t tag, ValueClass a, ValueClass b,
                 ValueClass c, ValueClass result) {
    if (is_exceptional(a) || is_exceptional(b) || is_exceptional(c) ||
        is_exceptional(result)) {
      record_exceptional_op(tag, a, b, c, result);
    } else {
      count_finite_op();
    }
  }
  /// Records a sticky-flag sample (softfloat Flag bits) at site `tag`.
  /// A bit present in the previous sample but absent now is a SWALLOW —
  /// someone ate sticky state between the two samples. Sticky state is
  /// monotone, so only a swallow touches a site.
  void record_flag_sample(std::uint64_t tag, unsigned sticky_flags) {
    summary_.flag_samples += 1;
    if ((last_flags_ & ~sticky_flags) != 0) [[unlikely]] record_swallow(tag);
    last_flags_ = sticky_flags;
  }
  /// Records a seam harvest (chunk/shard boundary): the conditions are
  /// unioned, the sample counted.
  void record_seam(const ConditionSet& conditions);
  /// Batched seam record: `samples` harvests whose condition union is
  /// `conditions` (the FlowCollector drain path).
  void record_seam_batch(const ConditionSet& conditions,
                         std::uint64_t samples);
  /// Records one drained trap event.
  void record_trap(const TrapEvent& event);
  /// Accounts for trap-ring overflow: `lost` events counted but without
  /// per-event detail (reported, never silent).
  void note_lost_traps(std::uint64_t lost) noexcept;

  /// Tag-ordered merge-join; summary counters add, seam conditions union.
  /// Associative and commutative, so any merge tree over per-shard
  /// ledgers (with equal max_sites) produces identical bits.
  void merge(FlowLedger&& other);

  const std::vector<SiteFlow>& sites() const noexcept { return sites_; }
  /// Site entry at `tag`, or nullptr.
  const SiteFlow* site(std::uint64_t tag) const noexcept;
  const FlowSummary& summary() const noexcept { return summary_; }
  const ConditionSet& seam_conditions() const noexcept {
    return seam_conditions_;
  }
  const std::vector<TrapEvent>& trap_events() const noexcept {
    return traps_;
  }
  std::size_t max_sites() const noexcept { return max_sites_; }

  /// Content hash over sites, summary and seam conditions — the
  /// bit-reproducibility witness for thread-count identity tests. Trap
  /// events are deliberately excluded: their PCs are ASLR-run-local and
  /// their arrival depends on hardware trap timing, so a sampling run
  /// must fingerprint identically with and without trap capture.
  std::uint64_t fingerprint() const noexcept;

 private:
  friend class FlowMonitor;

  void count_finite_op() noexcept { summary_.ops += 1; }
  void record_exceptional_op(std::uint64_t tag, ValueClass a, ValueClass b,
                             ValueClass c, ValueClass result);
  void record_swallow(std::uint64_t tag);
  SiteFlow* site_for(std::uint64_t tag);

  std::vector<SiteFlow> sites_;  // tag-sorted
  FlowSummary summary_;
  ConditionSet seam_conditions_;
  std::vector<TrapEvent> traps_;
  std::size_t max_sites_ = kDefaultMaxSites;
  unsigned last_flags_ = 0;  // 0 before the first sample: nothing vanishes
};

/// Acquisition mode request.
enum class FlowMode {
  kSampling = 0,  ///< seam/hook sampling only (portable)
  kTrap = 1,      ///< traps; degrade to sampling if unavailable
};

struct FlowOptions {
  FlowMode mode = FlowMode::kSampling;
  std::size_t max_sites = FlowLedger::kDefaultMaxSites;
  /// Register as the process-wide seam collector (FlowCollector), so
  /// instrumented chunk boundaries on OTHER threads (the tape
  /// interpreter, pool shards) contribute seam samples to this monitor. One collector at a
  /// time; a second concurrent request degrades with a reason.
  bool collect_seams = false;
};

/// What the platform actually delivered — reported, never inferred.
struct FlowCapability {
  bool trap_supported = false;   ///< platform could trap at all
  bool trap_active = false;      ///< this monitor's traps were live
  bool tracks_denormals = false; ///< MXCSR DE bit observable
  bool seam_collector = false;   ///< process-wide seam collection active
  std::string degradation;       ///< why a requested mode fell back; ""
};

/// A finished monitoring scope: the merged ledger plus the capability the
/// platform granted and the region's sticky ConditionSet.
struct FlowReport {
  FlowLedger ledger;
  FlowCapability capability;
  ConditionSet conditions;  ///< ScopedMonitor-harvested region conditions

  FlowReport() : ledger(FlowLedger::kDefaultMaxSites) {}
  std::uint64_t fingerprint() const noexcept;
};

/// Renders the ledger + capability matrix as text.
std::string render_flow_report(const FlowReport& report);

/// True when this build can arm FE traps (glibc feenableexcept + x86-64
/// ucontext layout + SIGFPE semantics this module understands).
bool trap_supported() noexcept;

/// Harvests the host's CURRENT sticky fenv/MXCSR state as a ConditionSet
/// without modifying anything — the read-only seam harvest.
ConditionSet current_fenv_conditions() noexcept;

/// RAII per-thread flow monitor. Nesting-safe: monitors form a per-thread
/// stack and every event is delivered to EVERY monitor on the stack, so
/// an outer monitor still observes flows inside inner scopes (the same
/// sticky discipline ScopedMonitor has). Contains a ScopedMonitor, so the
/// region's fenv state is cleared on entry and re-raised on stop — the
/// enclosing environment sees exactly what it would have seen unmonitored,
/// even when the monitored kernel throws.
class FlowMonitor {
 public:
  explicit FlowMonitor(const FlowOptions& options = {});
  ~FlowMonitor();
  FlowMonitor(const FlowMonitor&) = delete;
  FlowMonitor& operator=(const FlowMonitor&) = delete;

  /// Stops monitoring (idempotent): drains the trap ring, restores the
  /// signal disposition and exception masks, harvests the final seam
  /// sample, and freezes the report.
  const FlowReport& stop() & noexcept;
  /// Stops a monitor that is about to go away and moves its report out,
  /// so the site table is not copied.
  FlowReport stop() && noexcept {
    stop();
    return std::move(report_);
  }

  const FlowCapability& capability() const noexcept { return capability_; }

  // -- static emission fast paths ---------------------------------------
  //
  // Inline, so an instrumented evaluator pays no call for the common
  // event. With no monitor on this thread each is one thread_local load
  // and a branch. Otherwise an all-finite op event (exponent fields of
  // the result and the used operands not all ones) adds 1 to every
  // stacked monitor's summary().ops, and a flag sample that loses no
  // sticky bit adds 1 to flag_samples and stores the flags. Only an
  // event with an infinity or a NaN, or a swallow, goes out of line to
  // the site logic. Every stacked monitor receives every event.

  /// True when at least one FlowMonitor is live on this thread. Callers
  /// on hot paths gate event construction on this.
  static bool thread_active() noexcept { return t_top_ != nullptr; }
  /// One op event: operand values, operand count, final result, at site
  /// `tag`. Slots past operand_count are ignored whatever they hold.
  static void on_op(std::uint64_t tag, double a, double b, double c,
                    unsigned operand_count, double result) noexcept {
    FlowMonitor* m = t_top_;
    if (m == nullptr) return;
    const bool exceptional = is_nonfinite(result) |
                             ((operand_count > 0) & is_nonfinite(a)) |
                             ((operand_count > 1) & is_nonfinite(b)) |
                             ((operand_count > 2) & is_nonfinite(c));
    if (exceptional) [[unlikely]] {
      on_exceptional_op(tag, a, b, c, operand_count, result);
      return;
    }
    for (; m != nullptr; m = m->prev_) m->ledger_.count_finite_op();
  }
  /// One sticky-flag sample (softfloat Flag bits) at site `tag`.
  static void on_flag_sample(std::uint64_t tag, unsigned flags) noexcept {
    for (FlowMonitor* m = t_top_; m != nullptr; m = m->prev_) {
      m->ledger_.record_flag_sample(tag, flags);
    }
  }
  /// Seam harvest on the CURRENT thread's monitor stack (fenv read-only).
  static void on_seam() noexcept;

 private:
  static void on_exceptional_op(std::uint64_t tag, double a, double b,
                                double c, unsigned operand_count,
                                double result) noexcept;
  void start_trap() noexcept;
  void stop_trap() noexcept;

  // Top of this thread's monitor stack. stop() unlinks a monitor before
  // anything else, so every monitor on the stack is live. constinit: no
  // dynamic initialisation, so no TLS wrapper call on the fast paths.
  static inline thread_local constinit FlowMonitor* t_top_ = nullptr;

  FlowLedger ledger_;
  FlowCapability capability_;
  FlowReport report_;
  ScopedMonitor scoped_;
  FlowMonitor* prev_ = nullptr;  // intrusive per-thread stack link
  bool stopped_ = false;
  bool trap_session_ = false;
  bool seam_session_ = false;
  int trap_enabled_excepts_ = 0;
};

/// Runs `fn` under a fresh FlowMonitor and writes the report into `out`
/// even when `fn` throws (harvest + restoration happen during unwind).
template <typename Fn>
void monitor_flow(Fn&& fn, FlowReport& out,
                  const FlowOptions& options = {}) {
  struct Harvest {
    Harvest(FlowReport* o, const FlowOptions& opts) noexcept
        : monitor(opts), out(o) {}
    ~Harvest() { *out = std::move(monitor).stop(); }
    FlowMonitor monitor;
    FlowReport* out;
  } harvest(&out, options);
  fn();
}

/// Process-wide seam-sample collector: instrumentation seams on ANY
/// thread (tape-engine chunk boundaries) call sample(); when a
/// collect_seams FlowMonitor is active, the harvested condition bits and
/// the sample count accumulate atomically and drain into that monitor at
/// stop(). When no collector is active, sample() is one relaxed atomic
/// load. Thread-safe by atomic accumulation; deterministic because the
/// payload is a condition-bit union plus a count.
class FlowCollector {
 public:
  /// Called at instrumented chunk/shard boundaries.
  static void sample() noexcept;
  /// True when a collector is currently registered (tests).
  static bool active() noexcept;

 private:
  friend class FlowMonitor;
  static bool acquire() noexcept;
  static void release_into(FlowLedger& ledger) noexcept;
};

}  // namespace fpq::mon
