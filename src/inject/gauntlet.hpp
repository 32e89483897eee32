// fpq::inject — the detector gauntlet.
//
// Runs every workloads kernel probe under every fault class ON BOTH
// ARITHMETIC SUBSTRATES — the softfloat engine and the host FPU — and
// scores every detector fpqual ships:
//
//   * fpmon     — the sticky ConditionSet the monitored run reports,
//                 compared against the clean run's set (either direction:
//                 new conditions OR swallowed ones). On the native
//                 substrate this is a REAL fpmon::ScopedMonitor over the
//                 real FPU; on softfloat it is the harvested Env union.
//   * shadow    — per-call high-precision re-execution; fires when the
//                 primary result drifts from the shadow result beyond a
//                 threshold, or is exceptional when the shadow is not,
//   * interval  — per-call guaranteed enclosure; fires when the primary
//                 result escapes the enclosure or the enclosure blows up.
//
// Shadow and interval signals are evaluated per call against the SAME
// call of the clean baseline run of the SAME substrate, so a workload's
// inherent anomalies (the broken variants exist to have them) never count
// as detections — only firing the clean run did not fire counts. Trials
// whose campaign armed no effective fault are control trials; a detector
// firing on one is a false positive.
//
// One campaign identity drives both substrates: the (workload, class,
// trial) cell seed feeds the SAME CampaignConfig to a softfloat trial and
// a native trial, and the two must report identical sites_fingerprint()s
// — any disagreement lands in parity_mismatches, which a healthy run
// leaves empty. That cross-substrate identity is what licenses reading
// the softfloat and native matrix columns as the same experiment on two
// machines.
//
// Everything is a pure function of (GauntletConfig, workload catalogue):
// per-trial campaign seeds are splitmix64-derived from (seed, workload,
// class, trial), trials run as independent shards writing their own
// slots, and aggregation walks the slots in fixed order — so the coverage
// matrix and the full fault-site fingerprint are bit-identical at every
// thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fpmon/monitor.hpp"
#include "inject/fault.hpp"
#include "parallel/thread_pool.hpp"

namespace fpq::inject {

enum class Detector {
  kFpmon = 0,
  kShadow = 1,
  kInterval = 2,
  /// The flow-aware monitor (fpmon/flow.hpp): credits a detection ONLY
  /// when the flow ledger attributes the fault to a correct site — for
  /// poison faults the earliest signature-anomalous site must BE the
  /// injected site; for flag swallows the first observed swallow must lie
  /// at or after the armed site. Site-blind firing scores as a miss.
  kFpmonFlow = 3,
};
inline constexpr std::size_t kDetectorCount = 4;
/// The PR 5/6 detector set. The campaign fingerprint, the fired-bit
/// packing and the undetected-fault baseline are defined over these three
/// only, so adding detector columns can never change historic
/// fingerprints or the checked-in undetected baseline.
inline constexpr std::size_t kLegacyDetectorCount = 3;

/// "fpmon", "shadow", "interval", "fpmon-flow".
std::string detector_name(Detector d);

/// Which arithmetic engine executed the attacked kernel.
enum class Substrate { kSoftfloat = 0, kNative = 1 };
inline constexpr std::size_t kSubstrateCount = 2;

/// "softfloat", "native".
std::string substrate_name(Substrate s);

struct GauntletConfig {
  std::uint64_t seed = 0x1DFA;
  /// Trials per (workload, fault class) cell — each trial runs once per
  /// substrate under the same campaign seed.
  std::size_t trials = 6;
  /// Shadow detector: fire when |primary - shadow| / |shadow| exceeds
  /// this. Shadow re-seeds from the recorded bindings each call, so only
  /// within-call drift is visible: a sticky perturbed rounding mode biases
  /// every op the same way (≈ ops · ½ulp ≈ 5e-16 for a ~10-op call) while
  /// clean nearest-even error random-walks (≲ √ops · ½ulp ≈ 1.7e-16), and
  /// the threshold sits between the two.
  double shadow_relative_error = 4e-16;
  /// Shadow significand bits.
  unsigned shadow_precision = 192;
  /// Interval detector: fire when the enclosure's relative width exceeds
  /// this (in addition to firing on enclosure escape).
  double interval_wide = 1e-6;
};

/// One (fault class, detector) cell of a substrate's coverage matrix,
/// aggregated over all workloads and trials.
struct CellStats {
  std::size_t trials = 0;           ///< all trials scored for this cell
  std::size_t hits = 0;             ///< effective fault, detector fired
  std::size_t misses = 0;           ///< effective fault, detector silent
  std::size_t false_positives = 0;  ///< control trial, detector fired
  std::size_t controls = 0;         ///< trials with no effective fault
};

/// An effective fault NO detector saw — the gauntlet's real product.
struct MissRecord {
  std::string workload;
  Substrate substrate = Substrate::kSoftfloat;
  FaultClass fault_class = FaultClass::kPoison;
  std::size_t trial = 0;
  std::size_t effective_sites = 0;
};

/// Clean-probe contract verification, per substrate: the reduced-scale
/// probe must honor the same exception contract as the full workload, or
/// the baselines (and therefore the whole matrix) are meaningless.
struct ContractRow {
  std::string workload;
  Substrate substrate = Substrate::kSoftfloat;
  mon::ConditionSet observed;
  bool holds = false;
};

/// A (workload, class, trial) whose softfloat and native campaigns
/// reported different site fingerprints — a broken reproducibility
/// contract. A healthy gauntlet reports none.
struct ParityRecord {
  std::string workload;
  FaultClass fault_class = FaultClass::kPoison;
  std::size_t trial = 0;
  std::uint64_t softfloat_fingerprint = 0;
  std::uint64_t native_fingerprint = 0;
};

/// fpmon-flow attribution accounting over the classes whose faults leave
/// an exceptional-flow footprint (poison, flag-swallow), per substrate.
/// The acceptance bar: attributed/effective_trials ≥ 0.9 on poison
/// campaigns and control_anomalies == 0.
struct FlowScore {
  /// Effective poison trials (the attribution denominators/numerators).
  std::size_t poison_effective = 0;
  std::size_t poison_attributed = 0;
  /// Effective flag-swallow trials and those credited to the armed site.
  std::size_t swallow_effective = 0;
  std::size_t swallow_attributed = 0;
  /// Control trials scored, and signature-anomalous sites the flow
  /// ledger reported on them (must be zero: controls are bit-identical
  /// to the clean baseline).
  std::size_t control_trials = 0;
  std::size_t control_anomalies = 0;
};

/// Where a campaign's time went: wall seconds of its two phases, and
/// per-layer seconds summed over the shards that ran the layer. Each
/// layer is timed by steady-clock reads around it once per run (never
/// per call), so layer seconds equal CPU seconds when every pool worker
/// has a core to itself. Nothing the campaign reports is derived from
/// them.
struct PhaseSeconds {
  double baseline_wall = 0.0;  ///< phase 1: clean baselines, flow ledgers
  double trials_wall = 0.0;    ///< phase 2: injected trials
  double probes = 0.0;    ///< probe runs (recorded, injected, monitored)
  double shadow = 0.0;    ///< shadow detector over the recorded calls
  double interval = 0.0;  ///< interval detector over the recorded calls
  double flow = 0.0;      ///< fpmon-flow scoring against the clean ledger
};

struct GauntletResult {
  GauntletConfig config;
  /// cells[substrate][fault class][detector].
  std::array<
      std::array<std::array<CellStats, kDetectorCount>, kFaultClassCount>,
      kSubstrateCount>
      cells{};
  /// Effective-fault trials missed by every detector, in deterministic
  /// (workload, class, trial, substrate) order.
  std::vector<MissRecord> undetected;
  /// 2 rows per workload (softfloat first, then native).
  std::vector<ContractRow> contracts;
  /// Cross-substrate fingerprint disagreements; empty on a healthy run.
  std::vector<ParityRecord> parity_mismatches;
  std::size_t total_trials = 0;     ///< substrate runs (2 per campaign)
  std::size_t total_sites = 0;      ///< armed fault sites across all runs
  std::size_t total_effective = 0;  ///< effective fault sites
  /// Flow attribution accounting per substrate (fpmon-flow column).
  std::array<FlowScore, kSubstrateCount> flow_scores{};
  /// Platform capabilities the monitors ran with — surfaced so CI logs
  /// explain platform-dependent coverage gaps instead of leaving them
  /// implicit. tracks_denormals gates the kDenorm condition (MXCSR DE
  /// bit); trap_available reports whether FE-trap mode could have been
  /// armed at all (the gauntlet itself scores the portable sampling
  /// mode).
  bool tracks_denormals = false;
  bool trap_available = false;
  /// The campaign's time split (varies run to run; excluded from the
  /// fingerprint and from render()).
  PhaseSeconds phase_seconds;
  /// Content hash over every trial's fault-site list and every LEGACY
  /// detector cell — the bit-reproducibility witness, deliberately
  /// invariant under adding detector columns (see kLegacyDetectorCount).
  std::uint64_t fingerprint = 0;

  /// Whether any detector ever caught this fault class on this substrate
  /// (row not all-miss).
  bool class_covered(Substrate s, FaultClass c) const noexcept;
  /// Covered on every substrate.
  bool class_covered(FaultClass c) const noexcept;
};

/// Runs the full campaign. Deterministic for a fixed config at any
/// thread count.
GauntletResult run_gauntlet(parallel::ThreadPool& pool,
                            const GauntletConfig& config = {});

/// Per-substrate coverage matrices + contract table + parity verdict +
/// undetected-fault list as text.
std::string render(const GauntletResult& result);

}  // namespace fpq::inject
