// FlowMonitor / FlowLedger tests: bit-level value classification, the
// born/propagated/killed lifecycle accounting, swallow detection from
// paired flag samples, the bounded-site cap, order-independent merges,
// nesting and throw-safety of the monitor stack, and — where the
// platform can arm FE traps — SIGFPE capture with full mask and signal
// disposition restoration.

#include <csignal>
#include <cfenv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "fpmon/flow.hpp"
#include "softfloat/env.hpp"

namespace mon = fpq::mon;
namespace sf = fpq::softfloat;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FlowClassify, ReadsTheBitPatternOnly) {
  EXPECT_EQ(mon::classify(0.0), mon::ValueClass::kFinite);
  EXPECT_EQ(mon::classify(-0.0), mon::ValueClass::kFinite);
  EXPECT_EQ(mon::classify(1.5), mon::ValueClass::kFinite);
  EXPECT_EQ(mon::classify(std::numeric_limits<double>::denorm_min()),
            mon::ValueClass::kFinite);
  EXPECT_EQ(mon::classify(kInf), mon::ValueClass::kPosInf);
  EXPECT_EQ(mon::classify(-kInf), mon::ValueClass::kNegInf);
  EXPECT_EQ(mon::classify(kNaN), mon::ValueClass::kNaN);
  EXPECT_EQ(mon::classify(-kNaN), mon::ValueClass::kNaN);
  // Signaling NaN payloads classify as NaN without being evaluated.
  EXPECT_EQ(mon::classify(std::numeric_limits<double>::signaling_NaN()),
            mon::ValueClass::kNaN);

  EXPECT_FALSE(mon::is_exceptional(mon::ValueClass::kFinite));
  EXPECT_TRUE(mon::is_exceptional(mon::ValueClass::kPosInf));
  EXPECT_TRUE(mon::is_exceptional(mon::ValueClass::kNegInf));
  EXPECT_TRUE(mon::is_exceptional(mon::ValueClass::kNaN));
}

TEST(FlowClassify, ClassifyingDoesNotRaiseFlags) {
  std::feclearexcept(FE_ALL_EXCEPT);
  (void)mon::classify(std::numeric_limits<double>::signaling_NaN());
  (void)mon::classify(kInf);
  EXPECT_EQ(std::fetestexcept(FE_ALL_EXCEPT), 0);
}

TEST(FlowTags, AuxSitesSortAfterArithmeticSitesOfTheSameCall) {
  // The swallow-attribution rule "first swallow tag >= armed site tag"
  // leans on aux events (neg/cmp) of call N sorting after EVERY
  // arithmetic op of call N and before call N+1.
  const std::uint64_t arith_last = mon::flow_tag(7, (1ull << 19) - 1);
  const std::uint64_t aux_first = mon::flow_tag(7, mon::kFlowAuxBit | 0);
  const std::uint64_t next_call = mon::flow_tag(8, 0);
  EXPECT_LT(mon::flow_tag(7, 0), arith_last);
  EXPECT_LT(arith_last, aux_first);
  EXPECT_LT(aux_first, next_call);
}

TEST(FlowSignature, PacksOperandsAndResult) {
  const std::uint8_t clean = mon::flow_signature(
      mon::ValueClass::kFinite, mon::ValueClass::kFinite,
      mon::ValueClass::kFinite, mon::ValueClass::kFinite);
  const std::uint8_t poisoned = mon::flow_signature(
      mon::ValueClass::kNaN, mon::ValueClass::kFinite,
      mon::ValueClass::kFinite, mon::ValueClass::kNaN);
  EXPECT_NE(clean, poisoned);
  EXPECT_FALSE(mon::signature_has_exceptional(clean));
  EXPECT_TRUE(mon::signature_has_exceptional(poisoned));
}

TEST(FlowLedger, ClassifiesBornPropagatedKilled) {
  mon::FlowLedger led;
  // Born: finite operands, exceptional result.
  led.record_op(mon::flow_tag(0, 0), mon::ValueClass::kFinite,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kNaN);
  // Propagated: exceptional operand, exceptional result.
  led.record_op(mon::flow_tag(0, 1), mon::ValueClass::kNaN,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kNaN);
  // Killed: exceptional operand, finite result (e.g. min(nan, x)).
  led.record_op(mon::flow_tag(0, 2), mon::ValueClass::kNaN,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kFinite);
  // Clean op: nothing exceptional anywhere.
  led.record_op(mon::flow_tag(0, 3), mon::ValueClass::kFinite,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kFinite);

  const mon::FlowSummary& s = led.summary();
  EXPECT_EQ(s.ops, 4u);
  EXPECT_EQ(s.exceptional_ops, 3u);
  EXPECT_EQ(s.born, 1u);
  EXPECT_EQ(s.propagated, 1u);
  EXPECT_EQ(s.killed, 1u);

  ASSERT_NE(led.site(mon::flow_tag(0, 0)), nullptr);
  EXPECT_EQ(led.site(mon::flow_tag(0, 0))->born, 1u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 1))->propagated, 1u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 2))->killed, 1u);
  // The clean op counts in the summary but creates no site.
  EXPECT_EQ(led.site(mon::flow_tag(0, 3)), nullptr);
  EXPECT_EQ(led.sites().size(), 3u);
  EXPECT_EQ(led.site(mon::flow_tag(9, 9)), nullptr);
}

TEST(FlowLedger, SitesStayTagSortedUnderOutOfOrderRecording) {
  mon::FlowLedger led;
  for (const std::uint64_t tag : {mon::flow_tag(5, 0), mon::flow_tag(1, 2),
                                  mon::flow_tag(3, 1),
                                  mon::flow_tag(1, 0)}) {
    led.record_op(tag, mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                  mon::ValueClass::kFinite, mon::ValueClass::kPosInf);
  }
  ASSERT_EQ(led.sites().size(), 4u);
  for (std::size_t i = 1; i < led.sites().size(); ++i) {
    EXPECT_LT(led.sites()[i - 1].tag, led.sites()[i].tag);
  }
}

TEST(FlowLedger, PairedFlagSamplesDetectSwallows) {
  mon::FlowLedger led;
  // Sticky overflow appears, then VANISHES between samples: that is a
  // swallow, credited to the site of the second sample.
  led.record_flag_sample(mon::flow_tag(0, 0),
                         sf::kFlagOverflow | sf::kFlagInexact);
  led.record_flag_sample(mon::flow_tag(0, 1), sf::kFlagInexact);
  // Flags only ACCUMULATING is not a swallow.
  led.record_flag_sample(mon::flow_tag(0, 2),
                         sf::kFlagInexact | sf::kFlagInvalid);

  EXPECT_EQ(led.summary().swallows, 1u);
  EXPECT_EQ(led.summary().flag_samples, 3u);
  ASSERT_NE(led.site(mon::flow_tag(0, 1)), nullptr);
  EXPECT_EQ(led.site(mon::flow_tag(0, 1))->swallows, 1u);
  // Sites only materialize where something HAPPENED: the accumulating
  // third sample created no entry.
  EXPECT_EQ(led.site(mon::flow_tag(0, 2)), nullptr);
}

TEST(FlowLedger, SiteCapDropsLoudly) {
  mon::FlowLedger led(2);
  for (std::uint64_t op = 0; op < 5; ++op) {
    led.record_op(mon::flow_tag(0, op), mon::ValueClass::kFinite,
                  mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                  mon::ValueClass::kNaN);
  }
  EXPECT_EQ(led.sites().size(), 2u);
  EXPECT_EQ(led.summary().dropped_sites, 3u);
  // Totals still count every event — only per-site detail is capped.
  EXPECT_EQ(led.summary().ops, 5u);
  EXPECT_EQ(led.summary().born, 5u);
}

mon::FlowLedger sample_ledger(std::uint64_t call) {
  mon::FlowLedger led;
  led.record_op(mon::flow_tag(call, 0), mon::ValueClass::kFinite,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kNaN);
  led.record_op(mon::flow_tag(call, 1), mon::ValueClass::kNaN,
                mon::ValueClass::kFinite, mon::ValueClass::kFinite,
                mon::ValueClass::kNaN);
  led.record_flag_sample(mon::flow_tag(call, 0), sf::kFlagInvalid);
  led.record_flag_sample(mon::flow_tag(call, 1), 0);
  led.record_seam(mon::ConditionSet::from_softfloat_flags(sf::kFlagInexact));
  return led;
}

TEST(FlowLedger, MergeIsCommutative) {
  mon::FlowLedger ab = sample_ledger(1);
  ab.merge(sample_ledger(2));
  mon::FlowLedger ba = sample_ledger(2);
  ba.merge(sample_ledger(1));
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());
  EXPECT_EQ(ab.sites().size(), ba.sites().size());
}

TEST(FlowLedger, MergeEqualsSequentialRecordingOnSharedTags) {
  // Two shards observing the SAME sites merge to the same counters one
  // recorder would have produced.
  mon::FlowLedger merged = sample_ledger(1);
  merged.merge(sample_ledger(1));
  const mon::SiteFlow* site = merged.site(mon::flow_tag(1, 0));
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->events, 2u);
  EXPECT_EQ(site->born, 2u);
  EXPECT_EQ(merged.summary().ops, 4u);
  EXPECT_EQ(merged.summary().seam_samples, 2u);
  EXPECT_TRUE(merged.seam_conditions().test(mon::Condition::kPrecision));
}

TEST(FlowLedger, FingerprintIgnoresTrapEvents) {
  // Trap captures are run-local (ASLR PCs, hardware trap timing); a
  // sampling run must fingerprint identically with and without them, or
  // the thread-identity witness would be platform-dependent.
  mon::FlowLedger a = sample_ledger(1);
  mon::FlowLedger b = sample_ledger(1);
  a.record_trap({0x1000, mon::Condition::kDivByZero});
  b.record_trap({0x2000, mon::Condition::kInvalid});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), sample_ledger(1).fingerprint());
  // The events themselves are still reported in full.
  ASSERT_EQ(a.trap_events().size(), 1u);
  EXPECT_EQ(a.summary().trap_events, 1u);
}

TEST(FlowMonitor, SamplingModeCollectsOpEvents) {
  EXPECT_FALSE(mon::FlowMonitor::thread_active());
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        EXPECT_TRUE(mon::FlowMonitor::thread_active());
        mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 1.0, 2.0, 0.0, 2,
                                kNaN);
        mon::FlowMonitor::on_op(mon::flow_tag(0, 1), kNaN, 2.0, 0.0, 2,
                                kNaN);
      },
      report);
  EXPECT_FALSE(mon::FlowMonitor::thread_active());
  EXPECT_EQ(report.ledger.summary().born, 1u);
  EXPECT_EQ(report.ledger.summary().propagated, 1u);
  EXPECT_FALSE(report.capability.trap_active);
}

TEST(FlowMonitor, EventsReachEveryMonitorOnTheStack) {
  mon::FlowReport outer_report;
  mon::monitor_flow(
      [&] {
        mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 1.0, 1.0, 0.0, 2,
                                kInf);
        mon::FlowReport inner_report;
        mon::monitor_flow(
            [] {
              mon::FlowMonitor::on_op(mon::flow_tag(0, 1), kInf, 1.0, 0.0,
                                      2, kInf);
            },
            inner_report);
        // Inner saw only its own event; it is done, the outer lives on.
        EXPECT_EQ(inner_report.ledger.summary().ops, 1u);
        EXPECT_EQ(inner_report.ledger.summary().propagated, 1u);
        EXPECT_TRUE(mon::FlowMonitor::thread_active());
      },
      outer_report);
  // Outer saw both its own and the nested scope's events.
  EXPECT_EQ(outer_report.ledger.summary().ops, 2u);
  EXPECT_EQ(outer_report.ledger.summary().born, 1u);
  EXPECT_EQ(outer_report.ledger.summary().propagated, 1u);
}

TEST(FlowMonitor, NestedMonitorsCountEveryEventAndAStoppedOneNone) {
  mon::FlowMonitor outer;
  {
    mon::FlowMonitor inner;
    mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 1.0, 2.0, 0.0, 2, 3.0);
    mon::FlowMonitor::on_op(mon::flow_tag(0, 1), kInf, 2.0, 0.0, 2, kInf);
    const mon::FlowSummary inner_seen = inner.stop().ledger.summary();
    EXPECT_EQ(inner_seen.ops, 2u);
    EXPECT_EQ(inner_seen.exceptional_ops, 1u);
    EXPECT_EQ(inner_seen.propagated, 1u);
    // Stopped but still in scope: later events reach the outer monitor
    // only, the clean one and the exceptional one alike.
    mon::FlowMonitor::on_op(mon::flow_tag(0, 2), 1.0, 1.0, 0.0, 2, 2.0);
    mon::FlowMonitor::on_op(mon::flow_tag(0, 3), 1.0, 0.0, 0.0, 2, kInf);
    const mon::FlowReport& inner_report = inner.stop();
    EXPECT_EQ(inner_report.ledger.summary().ops, 2u);
    EXPECT_EQ(inner_report.ledger.summary().exceptional_ops, 1u);
    EXPECT_EQ(inner_report.ledger.summary().born, 0u);
    EXPECT_EQ(inner_report.ledger.sites().size(), 1u);
  }
  const mon::FlowReport& outer_report = outer.stop();
  const mon::FlowSummary& s = outer_report.ledger.summary();
  EXPECT_EQ(s.ops, 4u);
  EXPECT_EQ(s.exceptional_ops, 2u);
  EXPECT_EQ(s.propagated, 1u);
  EXPECT_EQ(s.born, 1u);
  EXPECT_EQ(outer_report.ledger.sites().size(), 2u);
}

TEST(FlowMonitor, UnusedOperandSlotsNeverMakeAnEventExceptional) {
  // Callers pass whatever sits in an unused slot; only the first
  // operand_count slots are classified.
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 4.0, kNaN, kInf, 1,
                                2.0);
        mon::FlowMonitor::on_op(mon::flow_tag(0, 1), 1.0, 2.0, kNaN, 2,
                                3.0);
      },
      report);
  const mon::FlowSummary& s = report.ledger.summary();
  EXPECT_EQ(s.ops, 2u);
  EXPECT_EQ(s.exceptional_ops, 0u);
  EXPECT_EQ(s.born + s.propagated + s.killed, 0u);
  EXPECT_TRUE(report.ledger.sites().empty());
}

TEST(FlowMonitor, FlagSamplesReachEveryMonitorOnTheStack) {
  mon::FlowReport outer_report;
  mon::monitor_flow(
      [] {
        mon::FlowMonitor::on_flag_sample(mon::flow_tag(0, 0),
                                         sf::kFlagOverflow);
        mon::FlowReport inner_report;
        mon::monitor_flow(
            [] {
              mon::FlowMonitor::on_flag_sample(mon::flow_tag(0, 1),
                                               sf::kFlagInvalid);
              mon::FlowMonitor::on_flag_sample(mon::flow_tag(0, 1), 0);
            },
            inner_report);
        // The inner monitor's window opened at its first sample: only
        // Invalid vanished inside it.
        EXPECT_EQ(inner_report.ledger.summary().flag_samples, 2u);
        EXPECT_EQ(inner_report.ledger.summary().swallows, 1u);
        ASSERT_NE(inner_report.ledger.site(mon::flow_tag(0, 1)), nullptr);
        mon::FlowMonitor::on_flag_sample(mon::flow_tag(0, 2),
                                         sf::kFlagInexact);
      },
      outer_report);
  // Outer: Overflow vanished at the first inner sample, Invalid at the
  // second; the last sample only adds bits.
  const mon::FlowLedger& led = outer_report.ledger;
  EXPECT_EQ(led.summary().flag_samples, 4u);
  EXPECT_EQ(led.summary().swallows, 2u);
  ASSERT_NE(led.site(mon::flow_tag(0, 1)), nullptr);
  EXPECT_EQ(led.site(mon::flow_tag(0, 1))->swallows, 2u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 2)), nullptr);
}

TEST(FlowMonitor, RvalueStopMovesTheSameReportOut) {
  auto run = [] {
    mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 1.0, 0.0, 0.0, 2, kInf);
    mon::FlowMonitor::on_op(mon::flow_tag(0, 1), kInf, 1.0, 0.0, 2, 1.0);
    mon::FlowMonitor::on_flag_sample(mon::flow_tag(0, 1), sf::kFlagInexact);
  };
  mon::FlowMonitor kept;
  run();
  const mon::FlowReport& copied = kept.stop();
  mon::FlowMonitor moved;
  run();
  const mon::FlowReport taken = std::move(moved).stop();
  EXPECT_EQ(taken.fingerprint(), copied.fingerprint());
  EXPECT_EQ(taken.ledger.sites().size(), 2u);
  EXPECT_EQ(taken.ledger.summary().killed, 1u);
  EXPECT_FALSE(mon::FlowMonitor::thread_active());
}

TEST(FlowMonitor, NestedMonitorReRaisesIntoTheEnclosingRegion) {
  // A FlowMonitor contains a ScopedMonitor: conditions raised inside a
  // nested flow scope must still reach an enclosing plain monitor_region
  // exactly as they would have unmonitored.
  mon::ConditionSet region = mon::monitor_region([] {
    mon::FlowReport report;
    mon::monitor_flow(
        [] {
          std::feraiseexcept(FE_OVERFLOW);
        },
        report);
    EXPECT_TRUE(report.conditions.test(mon::Condition::kOverflow));
  });
  EXPECT_TRUE(region.test(mon::Condition::kOverflow));
}

TEST(FlowMonitor, ThrowStillHarvestsAndRestores) {
  std::feclearexcept(FE_ALL_EXCEPT);
  mon::FlowReport report;
  EXPECT_THROW(
      mon::monitor_flow(
          [] {
            mon::FlowMonitor::on_op(mon::flow_tag(3, 3), 0.0, 0.0, 0.0, 2,
                                    kNaN);
            std::feraiseexcept(FE_DIVBYZERO);
            throw std::runtime_error("kernel died");
          },
          report),
      std::runtime_error);
  // The report was harvested during unwind...
  EXPECT_EQ(report.ledger.summary().born, 1u);
  EXPECT_TRUE(report.conditions.test(mon::Condition::kDivByZero));
  // ...the monitor stack is empty again...
  EXPECT_FALSE(mon::FlowMonitor::thread_active());
  // ...and the region's conditions were re-raised into the enclosing env.
  EXPECT_NE(std::fetestexcept(FE_DIVBYZERO), 0);
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(FlowMonitor, TrapModeDegradesToSamplingWithAReason) {
  mon::FlowOptions opts;
  opts.mode = mon::FlowMode::kTrap;
  if (!mon::trap_supported()) {
    // Platform cannot trap: the request itself must degrade loudly.
    mon::FlowMonitor monitor(opts);
    EXPECT_FALSE(monitor.capability().trap_active);
    EXPECT_FALSE(monitor.capability().degradation.empty());
    monitor.stop();
    return;
  }
  // A second concurrent trap session cannot arm; it must degrade
  // LOUDLY, not silently.
  mon::FlowMonitor outer(opts);
  ASSERT_TRUE(outer.capability().trap_active);
  {
    mon::FlowMonitor inner(opts);
    EXPECT_FALSE(inner.capability().trap_active);
    EXPECT_FALSE(inner.capability().degradation.empty());
    inner.stop();
  }
  outer.stop();
}

TEST(FlowMonitorTrap, CapturesRealTrapsAndRestoresEverything) {
  if (!mon::trap_supported()) {
    GTEST_SKIP() << "FE traps unavailable on this platform/build";
  }
  struct sigaction before {};
  sigaction(SIGFPE, nullptr, &before);
  const int masks_before = fegetexcept();

  mon::FlowOptions opts;
  opts.mode = mon::FlowMode::kTrap;
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        // Two different trap kinds in one scope: the handler must
        // re-mask each kind independently and execution must continue.
        volatile double zero = 0.0;
        volatile double one = 1.0;
        volatile double div = one / zero;  // FE_DIVBYZERO trap
        EXPECT_TRUE(std::isinf(div));
        volatile double inv = zero / zero;  // FE_INVALID trap
        EXPECT_TRUE(std::isnan(inv));
      },
      report, opts);

  EXPECT_TRUE(report.capability.trap_active);
  EXPECT_GE(report.ledger.summary().trap_events, 2u);
  bool saw_div = false;
  bool saw_inv = false;
  for (const mon::TrapEvent& e : report.ledger.trap_events()) {
    EXPECT_NE(e.pc, 0u);
    if (e.condition == mon::Condition::kDivByZero) saw_div = true;
    if (e.condition == mon::Condition::kInvalid) saw_inv = true;
  }
  EXPECT_TRUE(saw_div);
  EXPECT_TRUE(saw_inv);
  // The regular region ConditionSet still reports the conditions too.
  EXPECT_TRUE(report.conditions.test(mon::Condition::kDivByZero));
  EXPECT_TRUE(report.conditions.test(mon::Condition::kInvalid));

  // Exception masks and the SIGFPE disposition are fully restored.
  EXPECT_EQ(fegetexcept(), masks_before);
  struct sigaction after {};
  sigaction(SIGFPE, nullptr, &after);
  EXPECT_EQ(before.sa_flags & SA_SIGINFO, after.sa_flags & SA_SIGINFO);
  if (before.sa_flags & SA_SIGINFO) {
    EXPECT_EQ(before.sa_sigaction, after.sa_sigaction);
  } else {
    EXPECT_EQ(before.sa_handler, after.sa_handler);
  }
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(FlowMonitorTrap, FirstTrapPerKindDoesNotStorm) {
  if (!mon::trap_supported()) {
    GTEST_SKIP() << "FE traps unavailable on this platform/build";
  }
  mon::FlowOptions opts;
  opts.mode = mon::FlowMode::kTrap;
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        volatile double zero = 0.0;
        volatile double one = 1.0;
        // After the first divide-by-zero trap the kind is re-masked in
        // the interrupted context, so a thousand more divisions run at
        // full speed without signaling.
        for (int i = 0; i < 1000; ++i) {
          volatile double r = one / zero;
          (void)r;
        }
      },
      report, opts);
  EXPECT_TRUE(report.capability.trap_active);
  std::uint64_t div_traps = 0;
  for (const mon::TrapEvent& e : report.ledger.trap_events()) {
    if (e.condition == mon::Condition::kDivByZero) ++div_traps;
  }
  EXPECT_EQ(div_traps, 1u);
}

TEST(FlowCollector, InactiveByDefaultAndDrainsIntoTheOwner) {
  EXPECT_FALSE(mon::FlowCollector::active());
  // Samples with no collector are dropped without touching anyone.
  mon::FlowCollector::sample();

  std::feclearexcept(FE_ALL_EXCEPT);
  mon::FlowOptions opts;
  opts.collect_seams = true;
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        EXPECT_TRUE(mon::FlowCollector::active());
        std::feraiseexcept(FE_UNDERFLOW);
        mon::FlowCollector::sample();
        mon::FlowCollector::sample();
      },
      report, opts);
  EXPECT_FALSE(mon::FlowCollector::active());
  EXPECT_TRUE(report.capability.seam_collector);
  EXPECT_GE(report.ledger.summary().seam_samples, 2u);
  EXPECT_TRUE(
      report.ledger.seam_conditions().test(mon::Condition::kUnderflow));
  std::feclearexcept(FE_ALL_EXCEPT);
}

TEST(FlowReport, RenderNamesTheLoadBearingPieces) {
  mon::FlowReport report;
  mon::monitor_flow(
      [] {
        mon::FlowMonitor::on_op(mon::flow_tag(0, 0), 1.0, 0.0, 0.0, 2,
                                kNaN);
        mon::FlowMonitor::on_op(mon::flow_tag(0, 1), kNaN, 0.0, 0.0, 2,
                                1.0);
      },
      report);
  const std::string text = mon::render_flow_report(report);
  for (const char* needle :
       {"born", "killed", "capability", "trap", "denormal"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
