// The workload catalogue: every variant's condition contract must hold
// under the monitor — the suspicion quiz as a regression suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>

#include "fpmon/flow.hpp"
#include "fpmon/report.hpp"
#include "ir/expr.hpp"
#include "workloads/workloads.hpp"

namespace ir = fpq::ir;
namespace wl = fpq::workloads;
namespace mon = fpq::mon;

namespace fpq::workloads {
// gtest would print a pointer parameter as its address, which changes from
// run to run and so leaks into the discovered test names; print the name.
void PrintTo(const Workload* w, std::ostream* os) { *os << w->name; }
}  // namespace fpq::workloads

namespace {

class WorkloadContract
    : public ::testing::TestWithParam<const wl::Workload*> {};

TEST_P(WorkloadContract, ObservedConditionsMatchContract) {
  const wl::Workload& w = *GetParam();
  const auto observed = wl::observe(w);
  EXPECT_TRUE(wl::contract_holds(w, observed))
      << w.name << ": observed " << observed.to_string() << ", expected "
      << w.expected.to_string() << ", forbidden " << w.forbidden.to_string();
}

TEST_P(WorkloadContract, ObservationIsRepeatable) {
  const wl::Workload& w = *GetParam();
  EXPECT_EQ(wl::observe(w), wl::observe(w)) << w.name;
}

std::vector<const wl::Workload*> all_workloads() {
  std::vector<const wl::Workload*> out;
  for (const auto& w : wl::catalogue()) out.push_back(&w);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Catalogue, WorkloadContract,
                         ::testing::ValuesIn(all_workloads()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (auto& c : n)
                             if (c == '/') c = '_';
                           return n;
                         });

TEST(Workloads, CatalogueShape) {
  const auto cat = wl::catalogue();
  EXPECT_GE(cat.size(), 8u);
  // Every broken variant has a healthy sibling.
  for (const auto& w : cat) {
    if (w.name.find("/broken") == std::string::npos) continue;
    const std::string healthy =
        w.name.substr(0, w.name.find('/')) + "/healthy";
    bool found = false;
    for (const auto& other : cat) {
      if (other.name == healthy) found = true;
    }
    EXPECT_TRUE(found) << "no healthy sibling for " << w.name;
  }
}

TEST(Workloads, BrokenVariantsLookSuspiciousHealthyOnesDoNot) {
  // fpmon's verdict machinery must separate the pairs: every broken
  // variant reaches at least warning severity; healthy ones stay at
  // advised suspicion <= 2 (rounding/underflow only).
  for (const auto& w : wl::catalogue()) {
    const auto verdict = mon::evaluate(wl::observe(w));
    if (w.name.find("/broken") != std::string::npos) {
      EXPECT_GE(verdict.suspicion_level, 4) << w.name;
    } else {
      EXPECT_LE(verdict.suspicion_level, 2) << w.name;
    }
  }
}

TEST(Workloads, ContractCheckerRejectsViolations) {
  const wl::Workload& lorenz_ok = wl::catalogue()[0];
  mon::ConditionSet with_nan;
  with_nan.set(mon::Condition::kPrecision);
  with_nan.set(mon::Condition::kInvalid);  // forbidden for healthy lorenz
  EXPECT_FALSE(wl::contract_holds(lorenz_ok, with_nan));
  mon::ConditionSet missing;  // expected Precision absent
  EXPECT_FALSE(wl::contract_holds(lorenz_ok, missing));
}

TEST(Workloads, FlowContextNumbersEveryOpOfASharedSubtree) {
  // Hash consing makes m + m one shared node, but the flow tags must
  // follow the injector's numbering: every source-level op in tree order,
  // so the shared multiply is op 0 AND op 1 and the add is op 2.
  const ir::Expr m =
      ir::Expr::mul(ir::Expr::variable("x", 0), ir::Expr::variable("y", 1));
  const ir::Expr t = ir::Expr::add(m, m);
  const double binds[] = {std::numeric_limits<double>::infinity(), 2.0};
  wl::FlowContext ctx;
  mon::FlowReport report;
  mon::monitor_flow([&] { (void)ctx.call(t, binds); }, report);
  const mon::FlowLedger& led = report.ledger;
  EXPECT_EQ(led.summary().ops, 3u);
  ASSERT_EQ(led.sites().size(), 3u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 0))->propagated, 1u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 1))->propagated, 1u);
  EXPECT_EQ(led.site(mon::flow_tag(0, 2))->propagated, 1u);
}

TEST(FlowLedgerPins, CatalogueObserveFlowIsStable) {
  // Every catalogue ledger at full scale, pinned: the per-op emission
  // path may get cheaper, but the ledger it builds (sites, signatures,
  // summary) must not move by a bit. The site count is the number of
  // exceptional sites, so an all-finite op that leaked into a site would
  // show here as well as in the fingerprint.
  struct Pin {
    const char* name;
    std::uint64_t fingerprint;
    std::uint64_t ops, exceptional_ops, born, propagated, killed;
    std::size_t sites;
  };
  static constexpr Pin kPins[] = {
      {"lorenz/healthy", 3129118878268006659ull, 70000, 0, 0, 0, 0, 0},
      {"lorenz/broken", 297848040054487443ull, 1400, 1240, 2, 1238, 0, 1240},
      {"variance/healthy", 17901186720851434802ull, 259, 0, 0, 0, 0, 0},
      {"variance/broken", 11096774807207776323ull, 31, 1, 1, 0, 0, 1},
      {"series/healthy", 14576187655934898391ull, 1800, 0, 0, 0, 0, 0},
      {"series/broken", 5655704045434411417ull, 1601, 984, 1, 983, 0, 984},
      {"normalize/healthy", 9993370740509676473ull, 8, 0, 0, 0, 0, 0},
      {"normalize/broken", 5605326589179527881ull, 8, 6, 2, 2, 2, 6},
      {"decay/healthy", 2563869176168047292ull, 1101, 0, 0, 0, 0, 0},
      {"poly/healthy", 398644315242297688ull, 1206, 0, 0, 0, 0, 0},
      {"poly/broken", 7314703463292178626ull, 40, 18, 9, 9, 0, 18},
  };
  const auto cat = wl::catalogue();
  ASSERT_EQ(cat.size(), std::size(kPins));
  for (std::size_t i = 0; i < cat.size(); ++i) {
    const Pin& pin = kPins[i];
    ASSERT_EQ(cat[i].name, pin.name);
    const mon::FlowReport report = wl::observe_flow(cat[i]);
    const mon::FlowSummary& s = report.ledger.summary();
    EXPECT_EQ(report.ledger.fingerprint(), pin.fingerprint) << pin.name;
    EXPECT_EQ(s.ops, pin.ops) << pin.name;
    EXPECT_EQ(s.exceptional_ops, pin.exceptional_ops) << pin.name;
    EXPECT_EQ(s.born, pin.born) << pin.name;
    EXPECT_EQ(s.propagated, pin.propagated) << pin.name;
    EXPECT_EQ(s.killed, pin.killed) << pin.name;
    EXPECT_EQ(report.ledger.sites().size(), pin.sites) << pin.name;
  }
}

}  // namespace
