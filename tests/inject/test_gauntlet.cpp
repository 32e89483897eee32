// Detector-gauntlet tests: the coverage matrix is bit-reproducible at
// every thread count, every fault class is caught by at least one
// detector ON EACH SUBSTRATE, the softfloat and native halves of every
// campaign report identical fingerprints, control trials never read as
// detections, and the probe contracts hold on both substrates — the
// acceptance criteria of the fault-injection subsystem, as tests.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "fpmon/flow.hpp"
#include "inject/gauntlet.hpp"
#include "parallel/thread_pool.hpp"

namespace inj = fpq::inject;
namespace par = fpq::parallel;

namespace {

inj::GauntletConfig small_campaign() {
  inj::GauntletConfig config;
  config.seed = 0xC0FFEE;
  config.trials = 3;
  return config;
}

TEST(Gauntlet, MatrixIsBitIdenticalAcrossThreadCounts) {
  const inj::GauntletConfig config = small_campaign();
  par::ThreadPool one(1);
  const inj::GauntletResult base = inj::run_gauntlet(one, config);
  ASSERT_GT(base.total_trials, 0u);
  ASSERT_GT(base.total_effective, 0u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    const inj::GauntletResult r = inj::run_gauntlet(pool, config);
    EXPECT_EQ(r.fingerprint, base.fingerprint) << threads << " threads";
    EXPECT_EQ(r.total_trials, base.total_trials);
    EXPECT_EQ(r.total_sites, base.total_sites);
    EXPECT_EQ(r.total_effective, base.total_effective);
    EXPECT_EQ(r.parity_mismatches.size(), base.parity_mismatches.size());
    ASSERT_EQ(r.undetected.size(), base.undetected.size());
    for (std::size_t u = 0; u < r.undetected.size(); ++u) {
      EXPECT_EQ(r.undetected[u].workload, base.undetected[u].workload);
      EXPECT_EQ(r.undetected[u].substrate, base.undetected[u].substrate);
      EXPECT_EQ(r.undetected[u].fault_class,
                base.undetected[u].fault_class);
      EXPECT_EQ(r.undetected[u].trial, base.undetected[u].trial);
    }
    for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
      for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
        for (std::size_t d = 0; d < inj::kDetectorCount; ++d) {
          EXPECT_EQ(r.cells[s][c][d].hits, base.cells[s][c][d].hits);
          EXPECT_EQ(r.cells[s][c][d].misses, base.cells[s][c][d].misses);
          EXPECT_EQ(r.cells[s][c][d].false_positives,
                    base.cells[s][c][d].false_positives);
          EXPECT_EQ(r.cells[s][c][d].controls,
                    base.cells[s][c][d].controls);
        }
      }
    }
  }
}

TEST(Gauntlet, SubstratesReportIdenticalCampaignFingerprints) {
  // The acceptance criterion of the native substrate: one campaign
  // identity, two machines, zero fingerprint disagreements.
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  EXPECT_TRUE(r.parity_mismatches.empty())
      << r.parity_mismatches.size() << " campaigns diverged, first: "
      << (r.parity_mismatches.empty()
              ? ""
              : r.parity_mismatches.front().workload + " / " +
                    inj::fault_class_name(
                        r.parity_mismatches.front().fault_class));
}

TEST(Gauntlet, DifferentSeedsProduceDifferentCampaigns) {
  par::ThreadPool pool(4);
  inj::GauntletConfig config = small_campaign();
  const inj::GauntletResult a = inj::run_gauntlet(pool, config);
  config.seed ^= 0x9E3779B97F4A7C15ull;
  const inj::GauntletResult b = inj::run_gauntlet(pool, config);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(Gauntlet, EveryFaultClassIsCaughtOnEverySubstrate) {
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      const auto substrate = static_cast<inj::Substrate>(s);
      const auto cls = static_cast<inj::FaultClass>(c);
      EXPECT_TRUE(r.class_covered(substrate, cls))
          << inj::substrate_name(substrate) << " / "
          << inj::fault_class_name(cls);
    }
  }
}

TEST(Gauntlet, ControlTrialsNeverFireAnyDetector) {
  // Control trials replay the clean record stream bit-for-bit, so a
  // baseline-compared detector firing on one would mean the comparison
  // itself is broken — on either substrate.
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      for (std::size_t d = 0; d < inj::kDetectorCount; ++d) {
        EXPECT_EQ(r.cells[s][c][d].false_positives, 0u)
            << inj::substrate_name(static_cast<inj::Substrate>(s)) << " / "
            << inj::fault_class_name(static_cast<inj::FaultClass>(c))
            << " / " << inj::detector_name(static_cast<inj::Detector>(d));
      }
    }
  }
}

TEST(Gauntlet, ProbeContractsHoldOnBothSubstrates) {
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  ASSERT_FALSE(r.contracts.empty());
  std::size_t native_rows = 0;
  for (const auto& row : r.contracts) {
    EXPECT_TRUE(row.holds)
        << row.workload << " [" << inj::substrate_name(row.substrate)
        << "] observed " << row.observed.to_string();
    if (row.substrate == inj::Substrate::kNative) ++native_rows;
  }
  // Every workload must have been contract-checked on the real FPU too.
  EXPECT_EQ(native_rows * inj::kSubstrateCount, r.contracts.size());
  EXPECT_GT(native_rows, 0u);
}

TEST(Gauntlet, CellAccountingIsConsistent) {
  par::ThreadPool pool(2);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  std::size_t scored = 0;
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      // Every detector scores every trial of the class, so each detector
      // column of a class row accounts for the same trial total.
      const auto& row = r.cells[s][c];
      for (std::size_t d = 0; d < inj::kDetectorCount; ++d) {
        EXPECT_EQ(row[d].trials, row[0].trials);
        EXPECT_EQ(row[d].hits + row[d].misses + row[d].controls,
                  row[d].trials);
        EXPECT_EQ(row[d].controls, row[0].controls);
      }
      scored += row[0].trials;
    }
  }
  EXPECT_EQ(scored, r.total_trials);
}

TEST(Gauntlet, RenderNamesEveryClassDetectorAndSubstrate) {
  par::ThreadPool pool(2);
  inj::GauntletConfig config = small_campaign();
  config.trials = 1;
  const std::string text = inj::render(inj::run_gauntlet(pool, config));
  for (const char* needle :
       {"poison", "flag-swallow", "force-ftz", "rounding-perturb",
        "bit-flip", "fpmon", "shadow", "interval", "fingerprint",
        "softfloat", "native", "parity", "fpmon-flow", "attribution",
        "capability"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Gauntlet, FingerprintIsPinnedAcrossDetectorAdditions) {
  // The campaign fingerprint is defined over the LEGACY detector cells
  // (kLegacyDetectorCount) precisely so new detector columns can never
  // rewrite history. This pin is the PR 5/6 value for the small
  // campaign; if it moves, a fingerprint-visible behavior changed.
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  EXPECT_EQ(r.fingerprint, 4516197573157899061ull);
}

TEST(Gauntlet, FlowColumnIsPinned) {
  // The legacy fingerprint leaves the fpmon-flow column out and the
  // attribution bars below cover only poison and swallow, so this pins
  // the whole column for the small campaign: a ledger or join change
  // that silently loses (or invents) flow hits on any class fails here.
  struct Pin {
    std::size_t trials, hits, misses, false_positives, controls;
  };
  // Indexed by FaultClass: poison, flag-swallow, force-ftz,
  // rounding-perturb, bit-flip. Both substrates read the same.
  constexpr Pin kPins[inj::kFaultClassCount] = {
      {33, 24, 0, 0, 9},  {33, 30, 0, 0, 3},  {33, 0, 3, 0, 30},
      {33, 6, 15, 0, 12}, {33, 1, 22, 0, 10},
  };
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  const auto flow = static_cast<std::size_t>(inj::Detector::kFpmonFlow);
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    const std::string sub =
        inj::substrate_name(static_cast<inj::Substrate>(s));
    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      const inj::CellStats& cell = r.cells[s][c][flow];
      const std::string where =
          sub + " / " + inj::fault_class_name(static_cast<inj::FaultClass>(c));
      EXPECT_EQ(cell.trials, kPins[c].trials) << where;
      EXPECT_EQ(cell.hits, kPins[c].hits) << where;
      EXPECT_EQ(cell.misses, kPins[c].misses) << where;
      EXPECT_EQ(cell.false_positives, kPins[c].false_positives) << where;
      EXPECT_EQ(cell.controls, kPins[c].controls) << where;
    }
    const inj::FlowScore& fs = r.flow_scores[s];
    EXPECT_EQ(fs.poison_effective, 24u) << sub;
    EXPECT_EQ(fs.poison_attributed, 24u) << sub;
    EXPECT_EQ(fs.swallow_effective, 30u) << sub;
    EXPECT_EQ(fs.swallow_attributed, 30u) << sub;
    EXPECT_EQ(fs.control_trials, 64u) << sub;
    EXPECT_EQ(fs.control_anomalies, 0u) << sub;
  }
}

TEST(Gauntlet, FlowColumnAttributesPoisonToTheBirthSite) {
  // The fpmon-flow acceptance bar: >= 90% of effective poison faults
  // credited to the exact injected site, and swallows localized at or
  // after the armed site, on BOTH substrates.
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    const inj::FlowScore& fs = r.flow_scores[s];
    const std::string sub =
        inj::substrate_name(static_cast<inj::Substrate>(s));
    ASSERT_GT(fs.poison_effective, 0u) << sub;
    EXPECT_GE(fs.poison_attributed * 10, fs.poison_effective * 9) << sub;
    ASSERT_GT(fs.swallow_effective, 0u) << sub;
    EXPECT_GE(fs.swallow_attributed * 10, fs.swallow_effective * 9)
        << sub;
  }
}

TEST(Gauntlet, FlowLedgerReportsNoAnomaliesOnControls) {
  // Control trials replay the clean value stream bit-for-bit, so any
  // signature-anomalous site the flow ledger reports on one is a false
  // birth — zero tolerance, both substrates.
  par::ThreadPool pool(4);
  const inj::GauntletResult r = inj::run_gauntlet(pool, small_campaign());
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    const inj::FlowScore& fs = r.flow_scores[s];
    EXPECT_GT(fs.control_trials, 0u);
    EXPECT_EQ(fs.control_anomalies, 0u)
        << inj::substrate_name(static_cast<inj::Substrate>(s));
  }
}

TEST(Gauntlet, ResultSurfacesPlatformCapabilities) {
  // The matrix JSON and render lead with the capabilities the monitors
  // ran under; the fields must agree with what fpmon itself reports.
  par::ThreadPool pool(2);
  inj::GauntletConfig config = small_campaign();
  config.trials = 1;
  const inj::GauntletResult r = inj::run_gauntlet(pool, config);
  EXPECT_EQ(r.trap_available, fpq::mon::trap_supported());
  EXPECT_EQ(r.tracks_denormals, fpq::mon::ScopedMonitor().tracks_denormals());
}

TEST(Gauntlet, PhaseSecondsCoverBothPhasesAndEveryDetector) {
  par::ThreadPool pool(2);
  inj::GauntletConfig config = small_campaign();
  config.trials = 1;
  const inj::GauntletResult r = inj::run_gauntlet(pool, config);
  const inj::PhaseSeconds& t = r.phase_seconds;
  EXPECT_GT(t.baseline_wall, 0.0);
  EXPECT_GT(t.trials_wall, 0.0);
  EXPECT_GT(t.probes, 0.0);
  EXPECT_GT(t.shadow, 0.0);
  EXPECT_GT(t.interval, 0.0);
  EXPECT_GT(t.flow, 0.0);
  // Layer seconds are shard-busy time inside the two phases: two
  // workers cannot spend more than twice the phases' wall time.
  EXPECT_LE(t.probes + t.shadow + t.interval + t.flow,
            2.0 * (t.baseline_wall + t.trials_wall));
}

}  // namespace
