#include "inject/gauntlet.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>

#include "analyze/shadow.hpp"
#include "fpmon/flow.hpp"
#include "inject/context.hpp"
#include "inject/evaluator.hpp"
#include "interval/interval.hpp"
#include "ir/evaluators.hpp"
#include "ir/tape.hpp"
#include "report/table.hpp"
#include "stats/prng.hpp"
#include "workloads/workloads.hpp"

namespace fpq::inject {

std::string detector_name(Detector d) {
  switch (d) {
    case Detector::kFpmon:
      return "fpmon";
    case Detector::kShadow:
      return "shadow";
    case Detector::kInterval:
      return "interval";
    case Detector::kFpmonFlow:
      return "fpmon-flow";
  }
  return "unknown";
}

std::string substrate_name(Substrate s) {
  switch (s) {
    case Substrate::kSoftfloat:
      return "softfloat";
    case Substrate::kNative:
      return "native";
  }
  return "unknown";
}

bool GauntletResult::class_covered(Substrate s,
                                   FaultClass c) const noexcept {
  const auto& row = cells[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(c)];
  for (const CellStats& cell : row) {
    if (cell.hits > 0) return true;
  }
  return false;
}

bool GauntletResult::class_covered(FaultClass c) const noexcept {
  for (std::size_t s = 0; s < kSubstrateCount; ++s) {
    if (!class_covered(static_cast<Substrate>(s), c)) return false;
  }
  return true;
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t s = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  return stats::splitmix64_next(s);
}

/// Per-class campaign shape: single-shot corruptions arm rarely (one
/// fault per run); FTZ arms densely because it only bites on subnormal
/// traffic; the sticky classes arm once early and persist.
CampaignConfig campaign_for(FaultClass cls, std::uint64_t cell_seed) {
  CampaignConfig cc;
  cc.seed = cell_seed;
  cc.fault_class = cls;
  switch (cls) {
    case FaultClass::kPoison:
      cc.rate = 0.02;
      cc.max_faults = 1;
      break;
    case FaultClass::kFlagSwallow:
      cc.rate = 0.05;
      cc.max_faults = 1;
      break;
    case FaultClass::kForceFtz:
      cc.rate = 0.5;
      cc.max_faults = 0;
      break;
    case FaultClass::kRoundingPerturb:
      cc.rate = 0.05;
      cc.max_faults = 1;
      break;
    case FaultClass::kBitFlip:
      cc.rate = 0.02;
      cc.max_faults = 1;
      break;
  }
  return cc;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-call detector verdicts for one whole run.
struct RunSignals {
  mon::ConditionSet observed;
  std::vector<bool> shadow_fired;
  std::vector<bool> interval_fired;
};

/// Scores the shadow and interval detectors over a run's recorded calls,
/// one loop per detector so each is timed by two clock reads.
RunSignals signals_for(std::span<const CallRecord> records,
                       const mon::ConditionSet& observed,
                       const GauntletConfig& cfg, PhaseSeconds& seconds) {
  RunSignals out;
  out.observed = observed;
  out.shadow_fired.reserve(records.size());
  out.interval_fired.reserve(records.size());

  const Clock::time_point shadow_start = Clock::now();
  for (const CallRecord& rec : records) {
    const bigfloat::BigFloat exact =
        shadow::value(rec.expr, cfg.shadow_precision, rec.bindings);
    const bool exact_exceptional = exact.is_nan() || exact.is_infinity();
    bool sfired = false;
    if (!std::isfinite(rec.result)) {
      // Exceptional primary, unexceptional shadow: the fault (or the
      // format) manufactured it.
      sfired = !exact_exceptional;
    } else if (!exact_exceptional) {
      const double shadow_result = exact.to_double();
      const double denom = std::max(std::fabs(shadow_result),
                                    std::numeric_limits<double>::min());
      sfired = std::fabs(rec.result - shadow_result) / denom >
               cfg.shadow_relative_error;
    }
    out.shadow_fired.push_back(sfired);
  }

  const Clock::time_point interval_start = Clock::now();
  for (const CallRecord& rec : records) {
    const interval::Interval iv =
        interval::evaluate(rec.expr, rec.bindings);
    // An invalid enclosure means the mathematics itself went exceptional
    // on these inputs; the clean baseline sees the same and the per-call
    // comparison nets it out.
    const bool ifired =
        !iv.is_invalid() && (!iv.contains(rec.result) ||
                             iv.relative_width() > cfg.interval_wide);
    out.interval_fired.push_back(ifired);
  }
  seconds.shadow +=
      std::chrono::duration<double>(interval_start - shadow_start).count();
  seconds.interval += seconds_since(interval_start);
  return out;
}

/// Adds a shard's layer seconds into the campaign total.
void add_layers(PhaseSeconds& total, const PhaseSeconds& shard) {
  total.probes += shard.probes;
  total.shadow += shard.shadow;
  total.interval += shard.interval;
  total.flow += shard.flow;
}

/// True when the injected run fired on some call the clean run did not.
bool fired_beyond(const std::vector<bool>& injected,
                  const std::vector<bool>& clean) {
  const std::size_t common = std::min(injected.size(), clean.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (injected[i] && !clean[i]) return true;
  }
  for (std::size_t i = common; i < injected.size(); ++i) {
    if (injected[i]) return true;
  }
  return false;
}

struct TrialOut {
  bool armed = false;
  bool effective = false;
  std::size_t sites = 0;
  std::size_t effective_sites = 0;
  std::array<bool, kDetectorCount> fired{};
  std::uint64_t sites_fp = 0;
  /// fpmon-flow verdict detail (fired[kFpmonFlow] summarizes it).
  bool flow_attributed = false;
  std::size_t flow_anomalies = 0;
  /// This run's layer seconds (the wall fields stay zero).
  PhaseSeconds seconds;
};

/// The campaign that never arms: rate 0 consumes the identical
/// (call, op) numbering as any real campaign, so a run under it is the
/// flow ledger's clean baseline with trial-aligned site tags.
CampaignConfig null_campaign() {
  CampaignConfig cc;
  cc.rate = 0.0;
  cc.max_faults = 0;
  return cc;
}

/// Signature-anomalous sites: tags whose first-event signature differs
/// between the injected ledger and the clean baseline ledger, where the
/// difference involves an exceptional value class on either side. In a
/// straight-line kernel every value is bit-identical up to the first
/// effective mutation, so the EARLIEST anomalous tag is where the fault
/// entered the value stream.
std::vector<std::uint64_t> anomalous_tags(const mon::FlowLedger& led,
                                          const mon::FlowLedger& base) {
  std::vector<std::uint64_t> out;
  const auto& a = led.sites();
  const auto& b = base.sites();
  std::size_t i = 0, j = 0;
  while (i < a.size()) {
    while (j < b.size() && b[j].tag < a[i].tag) ++j;
    const bool have_base = j < b.size() && b[j].tag == a[i].tag;
    const std::uint8_t base_sig = have_base ? b[j].signature : 0;
    if (a[i].signature != base_sig &&
        (mon::signature_has_exceptional(a[i].signature) ||
         mon::signature_has_exceptional(base_sig))) {
      out.push_back(a[i].tag);
    }
    ++i;
  }
  return out;
}

/// First site tag carrying a swallow event, or nullopt.
std::optional<std::uint64_t> first_swallow_tag(const mon::FlowLedger& led) {
  for (const mon::SiteFlow& s : led.sites()) {
    if (s.swallows > 0) return s.tag;
  }
  return std::nullopt;
}

/// Scores the fpmon-flow detector for one trial: fires only with correct
/// site attribution on the classes whose attribution is defined (poison:
/// earliest anomaly == an effective injected site; swallow: first swallow
/// at/after the armed site); fires on any exceptional-flow anomaly for
/// the rest.
void score_flow(TrialOut& t, const mon::FlowLedger& led,
                const mon::FlowLedger& base, const Injector& injector,
                FaultClass cls) {
  const std::vector<std::uint64_t> anomalies = anomalous_tags(led, base);
  const std::optional<std::uint64_t> swallow = first_swallow_tag(led);
  t.flow_anomalies = anomalies.size();

  bool fired = false;
  switch (cls) {
    case FaultClass::kPoison: {
      if (!anomalies.empty()) {
        for (const FaultSite& s : injector.sites()) {
          if (s.effective && flow_tag(s.call, s.op) == anomalies.front()) {
            fired = true;
            t.flow_attributed = true;
            break;
          }
        }
      }
      break;
    }
    case FaultClass::kFlagSwallow: {
      if (swallow.has_value()) {
        for (const FaultSite& s : injector.sites()) {
          // Aux tags (neg/cmp) sort after the arithmetic ops of their
          // call, so >= correctly credits a swallow first seen on a
          // comparison of the armed call.
          if (s.effective && *swallow >= flow_tag(s.call, s.op)) {
            fired = true;
            t.flow_attributed = true;
            break;
          }
        }
      }
      break;
    }
    default:
      // No attribution contract: any exceptional-flow anomaly (an Inf
      // that vanished under a perturbed rounding mode, a NaN a bit flip
      // conjured) counts as a firing.
      fired = !anomalies.empty() || swallow.has_value();
      break;
  }
  t.fired[static_cast<std::size_t>(Detector::kFpmonFlow)] = fired;
}

/// Runs one injected trial of `wl` on one substrate and scores every
/// detector against that substrate's clean baseline.
TrialOut run_trial(const workloads::Workload& wl, FaultClass cls,
                   std::uint64_t cell_seed, Substrate substrate,
                   const RunSignals& baseline,
                   const mon::FlowLedger& flow_baseline,
                   const GauntletConfig& cfg) {
  Injector injector(campaign_for(cls, cell_seed));
  TrialOut t;
  RunSignals sig;
  mon::FlowReport flow;
  const Clock::time_point probe_start = Clock::now();
  if (substrate == Substrate::kSoftfloat) {
    SoftInjectingContext inj_ctx(injector);
    RecordingContext rec(inj_ctx);
    // The FlowMonitor watches the evaluator's op hooks; the softfloat
    // substrate's observed() flags live in the soft Env, which the
    // monitor's host-fenv scoping cannot perturb.
    mon::monitor_flow([&] { wl.probe(rec); }, flow);
    t.seconds.probes = seconds_since(probe_start);
    sig = signals_for(rec.records(), inj_ctx.observed(), cfg, t.seconds);
  } else {
    // The real FPU under a real monitor: the monitor clears the sticky
    // hardware flags on entry (giving the run the same empty-union start
    // the softfloat substrate's fresh Env has) and harvests whatever the
    // injected kernel — minus anything a swallow fault ate — left behind.
    // The nested FlowMonitor re-raises everything it harvested on stop,
    // so the outer region observes exactly what it always did.
    NativeInjectingContext inj_ctx(injector);
    RecordingContext rec(inj_ctx);
    mon::ConditionSet observed;
    mon::monitor_region(
        [&] { mon::monitor_flow([&] { wl.probe(rec); }, flow); }, observed);
    t.seconds.probes = seconds_since(probe_start);
    sig = signals_for(rec.records(), observed, cfg, t.seconds);
  }

  t.armed = !injector.sites().empty();
  t.sites = injector.sites().size();
  t.effective_sites = injector.effective_count();
  t.effective = t.effective_sites > 0;
  t.sites_fp = sites_fingerprint(injector.sites());
  t.fired[static_cast<std::size_t>(Detector::kFpmon)] =
      !(sig.observed == baseline.observed);
  t.fired[static_cast<std::size_t>(Detector::kShadow)] =
      fired_beyond(sig.shadow_fired, baseline.shadow_fired);
  t.fired[static_cast<std::size_t>(Detector::kInterval)] =
      fired_beyond(sig.interval_fired, baseline.interval_fired);
  const Clock::time_point flow_start = Clock::now();
  score_flow(t, flow.ledger, flow_baseline, injector, cls);
  t.seconds.flow = seconds_since(flow_start);
  return t;
}

}  // namespace

GauntletResult run_gauntlet(parallel::ThreadPool& pool,
                            const GauntletConfig& config) {
  GauntletResult result;
  result.config = config;

  const std::span<const workloads::Workload> cat = workloads::catalogue();
  const std::size_t n_workloads = cat.size();
  const std::size_t per_workload = kFaultClassCount * config.trials;

  // Phase 1: clean baselines, one shard per (workload, substrate). Also
  // verifies the probe contracts on both substrates — a probe that broke
  // its contract would poison every comparison below. Each shard
  // additionally runs the probe once more under a never-arming campaign
  // with a FlowMonitor attached: the flow ledger baseline, whose site
  // tags align one-for-one with every injected trial of the same
  // (workload, substrate) because the null campaign consumes the
  // identical (call, op) numbering.
  const std::size_t n_baselines = n_workloads * kSubstrateCount;
  std::vector<RunSignals> baselines(n_baselines);
  std::vector<mon::FlowLedger> flow_baselines(n_baselines);
  std::vector<PhaseSeconds> baseline_seconds(n_baselines);
  const Clock::time_point baseline_start = Clock::now();
  pool.run_shards(n_baselines, [&](std::size_t idx) {
    const std::size_t w = idx / kSubstrateCount;
    const Substrate substrate =
        static_cast<Substrate>(idx % kSubstrateCount);
    PhaseSeconds& seconds = baseline_seconds[idx];
    const Clock::time_point shard_start = Clock::now();
    Injector null_injector(null_campaign());
    mon::FlowReport flow;
    if (substrate == Substrate::kSoftfloat) {
      SoftContext soft;
      RecordingContext rec(soft);
      cat[w].probe(rec);
      baselines[idx] =
          signals_for(rec.records(), soft.observed(), config, seconds);
      SoftInjectingContext clean_ctx(null_injector);
      mon::monitor_flow([&] { cat[w].probe(clean_ctx); }, flow);
    } else {
      workloads::NativeContext native;
      RecordingContext rec(native);
      mon::ConditionSet observed;
      mon::monitor_region([&] { cat[w].probe(rec); }, observed);
      baselines[idx] = signals_for(rec.records(), observed, config, seconds);
      NativeInjectingContext clean_ctx(null_injector);
      mon::monitor_flow([&] { cat[w].probe(clean_ctx); }, flow);
    }
    flow_baselines[idx] = std::move(flow.ledger);
    // The shard is its two probe runs and the two detectors.
    seconds.probes =
        seconds_since(shard_start) - seconds.shadow - seconds.interval;
  });
  result.phase_seconds.baseline_wall = seconds_since(baseline_start);
  for (const PhaseSeconds& seconds : baseline_seconds) {
    add_layers(result.phase_seconds, seconds);
  }
  for (std::size_t w = 0; w < n_workloads; ++w) {
    for (std::size_t s = 0; s < kSubstrateCount; ++s) {
      const RunSignals& base = baselines[w * kSubstrateCount + s];
      result.contracts.push_back(
          {cat[w].name, static_cast<Substrate>(s), base.observed,
           workloads::contract_holds(cat[w], base.observed)});
    }
  }

  // Phase 2: one shard per (workload, fault class, trial, substrate).
  // The same cell seed feeds both substrate shards of a campaign, which
  // is what the parity check below verifies. Each shard owns its
  // Injector and writes only its slot.
  const std::size_t campaigns = n_workloads * per_workload;
  const std::size_t total = campaigns * kSubstrateCount;
  std::vector<TrialOut> trials(total);
  const Clock::time_point trials_start = Clock::now();
  pool.run_shards(total, [&](std::size_t idx) {
    const std::size_t campaign = idx / kSubstrateCount;
    const Substrate substrate =
        static_cast<Substrate>(idx % kSubstrateCount);
    const std::size_t w = campaign / per_workload;
    const std::size_t rest = campaign % per_workload;
    const std::size_t cls_index = rest / config.trials;
    const std::size_t trial = rest % config.trials;
    const FaultClass cls = static_cast<FaultClass>(cls_index);

    const std::uint64_t cell_seed =
        mix(mix(mix(config.seed, w), cls_index), trial);
    const std::size_t base_idx =
        w * kSubstrateCount + static_cast<std::size_t>(substrate);
    trials[idx] = run_trial(cat[w], cls, cell_seed, substrate,
                            baselines[base_idx], flow_baselines[base_idx],
                            config);
  });
  result.phase_seconds.trials_wall = seconds_since(trials_start);

  // Fixed-order aggregation: the matrices, the undetected list, the
  // parity verdicts and the fingerprint are pure functions of the slot
  // vector.
  std::uint64_t fp = mix(config.seed, total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    const TrialOut& t = trials[idx];
    const std::size_t campaign = idx / kSubstrateCount;
    const std::size_t s = idx % kSubstrateCount;
    const std::size_t w = campaign / per_workload;
    const std::size_t rest = campaign % per_workload;
    const std::size_t cls_index = rest / config.trials;
    const std::size_t trial = rest % config.trials;

    result.total_trials += 1;
    add_layers(result.phase_seconds, t.seconds);
    result.total_sites += t.sites;
    result.total_effective += t.effective_sites;

    // Every column scores every trial; but "undetected" (and the
    // fingerprint below) stay defined over the legacy detectors so the
    // checked-in baselines survive new columns.
    bool any_fired = false;
    for (std::size_t d = 0; d < kDetectorCount; ++d) {
      CellStats& cell = result.cells[s][cls_index][d];
      cell.trials += 1;
      if (t.effective) {
        if (t.fired[d]) {
          cell.hits += 1;
          if (d < kLegacyDetectorCount) any_fired = true;
        } else {
          cell.misses += 1;
        }
      } else {
        cell.controls += 1;
        if (t.fired[d]) cell.false_positives += 1;
      }
    }

    FlowScore& flow = result.flow_scores[s];
    if (t.effective) {
      if (cls_index == static_cast<std::size_t>(FaultClass::kPoison)) {
        flow.poison_effective += 1;
        if (t.flow_attributed) flow.poison_attributed += 1;
      } else if (cls_index ==
                 static_cast<std::size_t>(FaultClass::kFlagSwallow)) {
        flow.swallow_effective += 1;
        if (t.flow_attributed) flow.swallow_attributed += 1;
      }
    } else {
      flow.control_trials += 1;
      flow.control_anomalies += t.flow_anomalies;
    }

    if (t.effective && !any_fired) {
      result.undetected.push_back({cat[w].name, static_cast<Substrate>(s),
                                   static_cast<FaultClass>(cls_index),
                                   trial, t.effective_sites});
    }
    if (s == static_cast<std::size_t>(Substrate::kNative)) {
      const TrialOut& soft = trials[idx - 1];  // same campaign, softfloat
      if (soft.sites_fp != t.sites_fp) {
        result.parity_mismatches.push_back(
            {cat[w].name, static_cast<FaultClass>(cls_index), trial,
             soft.sites_fp, t.sites_fp});
      }
    }

    fp = mix(fp, t.sites_fp);
    fp = mix(fp, (t.effective ? 1u : 0u) | (t.armed ? 2u : 0u) |
                     (t.fired[0] ? 4u : 0u) | (t.fired[1] ? 8u : 0u) |
                     (t.fired[2] ? 16u : 0u));
  }
  for (const auto& substrate_cells : result.cells) {
    for (const auto& row : substrate_cells) {
      // Legacy columns only: the fingerprint's definition predates the
      // fpmon-flow column and must stay bit-identical to it.
      for (std::size_t d = 0; d < kLegacyDetectorCount; ++d) {
        const CellStats& cell = row[d];
        fp = mix(fp, cell.hits);
        fp = mix(fp, cell.misses);
        fp = mix(fp, cell.false_positives);
        fp = mix(fp, cell.controls);
      }
    }
  }
  result.fingerprint = fp;
  result.tracks_denormals = mon::ScopedMonitor().tracks_denormals();
  result.trap_available = mon::trap_supported();
  return result;
}

std::string render(const GauntletResult& result) {
  std::string out;

  out += "platform capability: denormal tracking " +
         std::string(result.tracks_denormals ? "on" : "off") +
         " (MXCSR DE), FE traps " +
         (result.trap_available ? "available" : "unavailable") +
         " (gauntlet scores sampling mode)\n\n";

  for (std::size_t s = 0; s < kSubstrateCount; ++s) {
    const auto substrate = static_cast<Substrate>(s);
    report::Table matrix({"fault class", "fpmon", "shadow", "interval",
                          "fpmon-flow", "effective", "controls"});
    for (std::size_t c = 0; c < kFaultClassCount; ++c) {
      const auto cls = static_cast<FaultClass>(c);
      std::vector<std::string> row;
      row.push_back(
          fault_class_name(cls) +
          (result.class_covered(substrate, cls) ? "" : "  [UNCOVERED]"));
      std::size_t effective = 0, controls = 0;
      for (std::size_t d = 0; d < kDetectorCount; ++d) {
        const CellStats& cell = result.cells[s][c][d];
        std::string text = report::Table::fmt(cell.hits) + "/" +
                           report::Table::fmt(cell.misses);
        if (cell.false_positives > 0) {
          text += " fp:" + report::Table::fmt(cell.false_positives);
        }
        row.push_back(text);
        effective = cell.hits + cell.misses;
        controls = cell.controls;
      }
      row.push_back(report::Table::fmt(effective));
      row.push_back(report::Table::fmt(controls));
      matrix.add_row(std::move(row));
    }
    out += report::section(
        "Detection coverage on " + substrate_name(substrate) +
            " (hits/misses per detector, " +
            report::Table::fmt(result.config.trials) +
            " trials per workload x class, seed " +
            report::Table::fmt(
                static_cast<std::size_t>(result.config.seed)) +
            ")",
        matrix.render());
  }

  report::Table flow_table({"substrate", "poison attributed",
                            "swallow attributed", "control anomalies"});
  for (std::size_t s = 0; s < kSubstrateCount; ++s) {
    const FlowScore& fs = result.flow_scores[s];
    flow_table.add_row(
        {substrate_name(static_cast<Substrate>(s)),
         report::Table::fmt(fs.poison_attributed) + "/" +
             report::Table::fmt(fs.poison_effective),
         report::Table::fmt(fs.swallow_attributed) + "/" +
             report::Table::fmt(fs.swallow_effective),
         report::Table::fmt(fs.control_anomalies) + " (" +
             report::Table::fmt(fs.control_trials) + " controls)"});
  }
  out += report::section(
      "fpmon-flow site attribution (credited/effective)",
      flow_table.render());

  report::Table contracts(
      {"workload probe", "substrate", "observed", "contract"});
  for (const ContractRow& row : result.contracts) {
    contracts.add_row({row.workload, substrate_name(row.substrate),
                       row.observed.to_string(),
                       row.holds ? "holds" : "VIOLATED"});
  }
  out += report::section("Clean probe contracts", contracts.render());

  std::string parity;
  if (result.parity_mismatches.empty()) {
    parity = "(all campaigns bit-identical across substrates)\n";
  } else {
    for (const ParityRecord& p : result.parity_mismatches) {
      parity += "  " + p.workload + " / " +
                fault_class_name(p.fault_class) + " trial " +
                report::Table::fmt(p.trial) + ": softfloat " +
                report::Table::fmt(
                    static_cast<std::size_t>(p.softfloat_fingerprint)) +
                " != native " +
                report::Table::fmt(
                    static_cast<std::size_t>(p.native_fingerprint)) +
                "\n";
    }
  }
  out += report::section("Cross-substrate campaign parity", parity);

  std::string misses;
  if (result.undetected.empty()) {
    misses = "(none — every effective fault was caught by at least one "
             "detector)\n";
  } else {
    for (const MissRecord& m : result.undetected) {
      misses += "  " + m.workload + " [" + substrate_name(m.substrate) +
                "] / " + fault_class_name(m.fault_class) + " trial " +
                report::Table::fmt(m.trial) + " (" +
                report::Table::fmt(m.effective_sites) +
                " effective site(s))\n";
    }
  }
  out += report::section("Undetected effective faults", misses);

  out += "total trials: " + report::Table::fmt(result.total_trials) +
         ", armed sites: " + report::Table::fmt(result.total_sites) +
         ", effective: " + report::Table::fmt(result.total_effective) +
         ", fingerprint: " +
         report::Table::fmt(static_cast<std::size_t>(result.fingerprint)) +
         "\n";
  return out;
}

}  // namespace fpq::inject
