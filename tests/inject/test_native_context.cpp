// NativeInjectingContext hygiene tests. The native substrate attacks the
// REAL floating-point environment — swallow faults call real
// feclearexcept, perturb faults real fesetround — so the contract under
// test is surgical damage: the fenv effects the fault model specifies
// happen, and nothing else leaks. Rounding mode and entry sticky flags
// must survive every exit path, including a kernel that throws mid-run,
// and no per-call context may leave process-global state behind.

#include <cfenv>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include <gtest/gtest.h>

#include "fpmon/monitor.hpp"
#include "inject/context.hpp"
#include "inject/fault.hpp"
#include "ir/expr.hpp"
#include "ir/tape.hpp"
#include "workloads/workloads.hpp"

namespace inj = fpq::inject;
namespace ir = fpq::ir;
namespace mon = fpq::mon;
namespace sf = fpq::softfloat;
namespace wl = fpq::workloads;

namespace {

ir::Expr add_vars() {
  return ir::Expr::add(ir::Expr::variable("v0", 0),
                       ir::Expr::variable("v1", 1));
}

inj::CampaignConfig sticky_campaign(inj::FaultClass cls,
                                    std::uint64_t seed) {
  inj::CampaignConfig cc;
  cc.seed = seed;
  cc.fault_class = cls;
  cc.rate = 1.0;
  cc.max_faults = 0;
  return cc;
}

const wl::Workload& workload_named(const char* name) {
  for (const wl::Workload& w : wl::catalogue()) {
    if (w.name == name) return w;
  }
  ADD_FAILURE() << "no workload named " << name;
  std::abort();
}

/// RAII guard: every test here leaves the process fenv exactly as it
/// found it, whatever the assertions did.
struct FenvRestorer {
  FenvRestorer() { std::fegetenv(&env_); }
  ~FenvRestorer() { std::fesetenv(&env_); }
  std::fenv_t env_;
};

TEST(NativeContext, RoundingModeSurvivesAnInjectedRun) {
  FenvRestorer restore;
  ASSERT_EQ(std::fesetround(FE_TOWARDZERO), 0);

  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kRoundingPerturb, 7));
  inj::NativeInjectingContext ctx(injector);
  const ir::Expr e = add_vars();
  const double binds[] = {0.1, 0.2};
  for (int i = 0; i < 4; ++i) (void)ctx.call(e, binds);

  EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
}

TEST(NativeContext, EntryStickyFlagsSurviveAnInjectedRun) {
  FenvRestorer restore;
  std::feclearexcept(FE_ALL_EXCEPT);
  std::feraiseexcept(FE_DIVBYZERO);

  // Perturb campaigns excursion through fesetround + a recompute that
  // raises its own flags; the snapshot restore must bring the entry
  // DIVBYZERO back untouched.
  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kRoundingPerturb, 11));
  inj::NativeInjectingContext ctx(injector);
  const ir::Expr e = add_vars();
  const double binds[] = {0.1, 0.2};
  for (int i = 0; i < 4; ++i) (void)ctx.call(e, binds);

  EXPECT_NE(std::fetestexcept(FE_DIVBYZERO), 0);
}

TEST(NativeContext, PerturbRecomputeLeavesNoPhantomFlags) {
  FenvRestorer restore;

  // Find a campaign whose perturbed mode is round-toward-positive: for
  // DBL_MAX + 1.0 the perturbed recompute overflows to +inf while the
  // primary nearest-even op only raises INEXACT. The overflow raised
  // INSIDE the recompute must not leak into the ambient fenv.
  std::optional<std::uint64_t> up_seed;
  for (std::uint64_t seed = 0; seed < 512 && !up_seed; ++seed) {
    inj::Injector probe(
        sticky_campaign(inj::FaultClass::kRoundingPerturb, seed));
    inj::NativeInjectingContext ctx(probe);
    const double binds[] = {1.0, 2.0};
    (void)ctx.call(add_vars(), binds);
    if (probe.perturb_rounding() == sf::Rounding::kUp) up_seed = seed;
  }
  ASSERT_TRUE(up_seed.has_value());

  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kRoundingPerturb, *up_seed));
  inj::NativeInjectingContext ctx(injector);
  std::feclearexcept(FE_ALL_EXCEPT);
  const double binds[] = {DBL_MAX, 1.0};
  const double r = ctx.call(add_vars(), binds);

  // The fault's VALUE effect landed...
  EXPECT_TRUE(std::isinf(r));
  EXPECT_GT(r, 0.0);
  // ...the primary op's own flag is still there...
  EXPECT_NE(std::fetestexcept(FE_INEXACT), 0);
  // ...and the recompute's overflow excursion is not.
  EXPECT_EQ(std::fetestexcept(FE_OVERFLOW), 0);
}

TEST(NativeContext, SwallowFaultEatsTheRealFenvFlags) {
  FenvRestorer restore;
  std::feclearexcept(FE_ALL_EXCEPT);

  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kFlagSwallow, 3));
  inj::NativeInjectingContext ctx(injector);
  const ir::Expr e = add_vars();
  const double binds[] = {0.1, 0.2};  // inexact on every call
  for (int i = 0; i < 4; ++i) (void)ctx.call(e, binds);

  // The fault's whole point: the hardware's INEXACT record is gone, and
  // the injector confessed to exactly that.
  EXPECT_EQ(std::fetestexcept(FE_INEXACT), 0);
  EXPECT_NE(injector.swallowed_flags() & sf::kFlagInexact, 0u);
  EXPECT_GE(injector.effective_count(), 1u);
}

TEST(NativeContext, ThrowMidKernelRestoresRoundingMode) {
  FenvRestorer restore;
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);

  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kRoundingPerturb, 13));
  inj::NativeInjectingContext ctx(injector);
  const ir::Expr e = add_vars();
  const double binds[] = {0.1, 0.2};

  mon::ConditionSet observed;
  EXPECT_THROW(mon::monitor_region(
                   [&] {
                     (void)ctx.call(e, binds);
                     (void)ctx.call(e, binds);
                     throw std::runtime_error("kernel failed mid-run");
                   },
                   observed),
               std::runtime_error);

  EXPECT_FALSE(injector.sites().empty());  // the perturbation armed
  EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
}

TEST(NativeContext, FullScaleRunKernelCarriesTheFaultFootprint) {
  FenvRestorer restore;
  const wl::Workload& w = workload_named("lorenz/healthy");

  // Clean full-scale run: inexact arithmetic leaves its fpmon record.
  const mon::ConditionSet clean = wl::observe(w);

  // Same full-scale run() kernel, attacked through the context seam with
  // a flag swallower: the record the monitor harvests has been eaten.
  inj::Injector injector(
      sticky_campaign(inj::FaultClass::kFlagSwallow, 17));
  inj::NativeInjectingContext ctx(injector);
  const mon::ConditionSet injected = wl::observe(w, ctx);

  EXPECT_GE(injector.effective_count(), 1u);
  EXPECT_NE(injector.swallowed_flags(), 0u);
  EXPECT_FALSE(injected == clean)
      << "clean " << clean.to_string() << " vs injected "
      << injected.to_string();
}

TEST(NativeContext, EveryFaultClassLeavesRoundingAndEntryFlagsIntact) {
  FenvRestorer restore;
  const wl::Workload& w = workload_named("variance/healthy");

  for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    std::feclearexcept(FE_ALL_EXCEPT);
    std::feraiseexcept(FE_DIVBYZERO);

    inj::CampaignConfig cc =
        sticky_campaign(static_cast<inj::FaultClass>(c), 23 + c);
    cc.rate = 0.2;
    inj::Injector injector(cc);
    inj::NativeInjectingContext ctx(injector);
    mon::ConditionSet observed;
    mon::monitor_region([&] { w.probe(ctx); }, observed);

    const auto cls = static_cast<inj::FaultClass>(c);
    EXPECT_EQ(std::fegetround(), FE_UPWARD)
        << inj::fault_class_name(cls);
    EXPECT_NE(std::fetestexcept(FE_DIVBYZERO), 0)
        << inj::fault_class_name(cls);

    std::fesetround(FE_TONEAREST);
    std::feclearexcept(FE_ALL_EXCEPT);
  }
}

TEST(EvalContexts, ProbesLeaveTheTapeMemoEmpty) {
  // Every per-call context walks the tree, so running kernels must not
  // grow the process-global tape memo.
  FenvRestorer restore;
  ir::Tape::clear_cache();
  for (const wl::Workload& w : wl::catalogue()) {
    wl::NativeContext native;
    w.probe(native);
    wl::FlowContext flow;
    w.probe(flow);
    inj::SoftContext soft;
    w.probe(soft);
    inj::Injector injector(
        sticky_campaign(inj::FaultClass::kRoundingPerturb, 29));
    inj::NativeInjectingContext injecting(injector);
    w.probe(injecting);
  }
  EXPECT_EQ(ir::Tape::cache_stats().entries, 0u);
}

TEST(EvalContexts, InjectedProbesKeepTheInternPoolFlat) {
  // Kernels build their trees from variables and pass their data as
  // bindings, so injected values never become constants: after one
  // campaign seed has interned every program shape, further seeds (and
  // the different values their faults produce) intern nothing.
  FenvRestorer restore;
  const auto run_seed = [](std::uint64_t seed) {
    for (const inj::FaultClass cls :
         {inj::FaultClass::kPoison, inj::FaultClass::kBitFlip}) {
      inj::CampaignConfig cc;
      cc.seed = seed;
      cc.fault_class = cls;
      cc.rate = 0.05;
      cc.max_faults = 4;
      for (const wl::Workload& w : wl::catalogue()) {
        inj::Injector soft_injector(cc);
        inj::SoftInjectingContext soft(soft_injector);
        w.probe(soft);
        inj::Injector native_injector(cc);
        inj::NativeInjectingContext native(native_injector);
        w.probe(native);
      }
    }
  };
  run_seed(0);
  const std::size_t after_first = ir::Expr::intern_pool_size();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) run_seed(seed);
  EXPECT_EQ(ir::Expr::intern_pool_size(), after_first);
}

}  // namespace
