// Fuzz-style differential sweep over the whole injection stack: seeded,
// deterministic random IR trees run clean and injected on BOTH substrates.
// The properties under test are the ones the gauntlet's scoring silently
// assumes:
//
//   * clean runs agree across substrates (NaN-canonically — the engines
//     manufacture different NaN bit patterns), in binary64 and, through
//     the two binary32 evaluators, in binary32,
//   * a control trial (campaign with zero effective sites) is bit- and
//     flag-identical to its own substrate's clean baseline,
//   * every EFFECTIVE poison/bit-flip site really changed its value
//     (inert-site misclassification would corrupt control accounting),
//   * both substrates report the same campaign fingerprint.

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fpmon/monitor.hpp"
#include "inject/context.hpp"
#include "inject/fault.hpp"
#include "inject/gauntlet.hpp"
#include "ir/evaluators.hpp"
#include "ir/expr.hpp"
#include "stats/prng.hpp"
#include "workloads/workloads.hpp"

namespace inj = fpq::inject;
namespace ir = fpq::ir;
namespace mon = fpq::mon;
namespace stats = fpq::stats;
namespace wl = fpq::workloads;

namespace {

constexpr std::size_t kTrees = 24;
constexpr std::size_t kCallsPerRun = 5;

/// Small random expression tree, depth-bounded, arithmetic ops only.
/// Constants are drawn from a palette that exercises rounding, overflow,
/// and the subnormal range; pure function of the RNG state.
ir::Expr random_tree(stats::Xoshiro256pp& rng, int depth) {
  static const double kPalette[] = {1.0,   0.5,    3.0,  -2.5,
                                    0.1,   1e300,  1e-3, 7.25,
                                    1e-310, -0.75};
  if (depth <= 0 || stats::uniform_below(rng, 4) == 0) {
    if (stats::uniform_below(rng, 2) == 0) {
      const auto v = static_cast<std::size_t>(stats::uniform_below(rng, 3));
      const char* names[] = {"v0", "v1", "v2"};
      return ir::Expr::variable(names[v], static_cast<unsigned>(v));
    }
    return ir::Expr::constant(
        kPalette[stats::uniform_below(rng, std::size(kPalette))]);
  }
  switch (stats::uniform_below(rng, 7)) {
    case 0:
      return ir::Expr::add(random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1));
    case 1:
      return ir::Expr::sub(random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1));
    case 2:
      return ir::Expr::mul(random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1));
    case 3:
      return ir::Expr::div(random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1));
    case 4:
      return ir::Expr::sqrt(random_tree(rng, depth - 1));
    case 5:
      return ir::Expr::neg(random_tree(rng, depth - 1));
    default:
      return ir::Expr::fma(random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1),
                           random_tree(rng, depth - 1));
  }
}

/// The bindings of the fuzz kernel's call `i` (v2 dips into the subnormal
/// range so FTZ/DAZ and denormal-flag traffic occur).
std::array<double, 3> fuzz_bindings(std::size_t i) {
  return {0.5 + static_cast<double>(i),
          1.0 / 3.0 + 0.25 * static_cast<double>(i),
          1e-310 * static_cast<double>(i + 1)};
}

/// The fuzz kernel: the tree evaluated kCallsPerRun times with varying
/// bindings.
void fuzz_kernel(const ir::Expr& tree, wl::EvalContext& ctx) {
  for (std::size_t i = 0; i < kCallsPerRun; ++i) {
    (void)ctx.call(tree, fuzz_bindings(i));
  }
}

struct RunResult {
  std::vector<double> values;          // per-call results, in call order
  mon::ConditionSet observed;          // run-level condition union
  std::vector<inj::FaultSite> sites;   // empty for clean runs
  std::uint64_t fingerprint = 0;
  std::size_t effective = 0;
};

RunResult run_one(inj::Substrate substrate, const ir::Expr& tree,
            const inj::CampaignConfig* cc) {
  RunResult out;
  inj::Injector injector(cc != nullptr ? *cc : inj::CampaignConfig{});
  if (substrate == inj::Substrate::kSoftfloat) {
    if (cc != nullptr) {
      inj::SoftInjectingContext ctx(injector);
      inj::RecordingContext rec(ctx);
      fuzz_kernel(tree, rec);
      for (const inj::CallRecord& r : rec.records())
        out.values.push_back(r.result);
      out.observed = ctx.observed();
    } else {
      inj::SoftContext ctx;
      inj::RecordingContext rec(ctx);
      fuzz_kernel(tree, rec);
      for (const inj::CallRecord& r : rec.records())
        out.values.push_back(r.result);
      out.observed = ctx.observed();
    }
  } else {
    if (cc != nullptr) {
      inj::NativeInjectingContext ctx(injector);
      inj::RecordingContext rec(ctx);
      mon::monitor_region([&] { fuzz_kernel(tree, rec); }, out.observed);
      for (const inj::CallRecord& r : rec.records())
        out.values.push_back(r.result);
    } else {
      wl::NativeContext ctx;
      inj::RecordingContext rec(ctx);
      mon::monitor_region([&] { fuzz_kernel(tree, rec); }, out.observed);
      for (const inj::CallRecord& r : rec.records())
        out.values.push_back(r.result);
    }
  }
  if (cc != nullptr) {
    out.sites = injector.sites();
    out.fingerprint = inj::sites_fingerprint(injector.sites());
    out.effective = injector.effective_count();
  }
  return out;
}

inj::CampaignConfig fuzz_campaign(inj::FaultClass cls, std::uint64_t seed) {
  inj::CampaignConfig cc;
  cc.seed = seed;
  cc.fault_class = cls;
  cc.rate = 0.15;
  cc.max_faults = cls == inj::FaultClass::kForceFtz ? 0 : 1;
  return cc;
}

TEST(FuzzDifferential, SubstratesAndCampaignsAgreeOnRandomTrees) {
  std::size_t effective_trials = 0;
  std::size_t control_trials = 0;
  std::size_t value_mutations_checked = 0;

  for (std::size_t t = 0; t < kTrees; ++t) {
    stats::Xoshiro256pp rng(0xF022EE5 + t);
    const ir::Expr tree = random_tree(rng, 4);

    // Clean cross-substrate parity (NaN-canonical).
    const RunResult soft_clean =
        run_one(inj::Substrate::kSoftfloat, tree, nullptr);
    const RunResult native_clean =
        run_one(inj::Substrate::kNative, tree, nullptr);
    ASSERT_EQ(soft_clean.values.size(), native_clean.values.size());
    for (std::size_t i = 0; i < soft_clean.values.size(); ++i) {
      EXPECT_TRUE(
          inj::same_value(soft_clean.values[i], native_clean.values[i]))
          << "tree " << t << " call " << i;
    }

    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      const auto cls = static_cast<inj::FaultClass>(c);
      const inj::CampaignConfig cc = fuzz_campaign(cls, 0xABCD + 31 * t);
      const RunResult soft = run_one(inj::Substrate::kSoftfloat, tree, &cc);
      const RunResult native = run_one(inj::Substrate::kNative, tree, &cc);

      // Identical campaigns on identical kernels: same fingerprint.
      EXPECT_EQ(soft.fingerprint, native.fingerprint)
          << "tree " << t << " class " << inj::fault_class_name(cls);
      EXPECT_EQ(soft.effective, native.effective);

      // The injected value streams agree NaN-canonically too: both
      // substrates applied the same mutations to the same arithmetic.
      ASSERT_EQ(soft.values.size(), native.values.size());
      for (std::size_t i = 0; i < soft.values.size(); ++i) {
        EXPECT_TRUE(inj::same_value(soft.values[i], native.values[i]))
            << "tree " << t << " class " << inj::fault_class_name(cls)
            << " call " << i;
      }

      // Control trials are indistinguishable from clean — bit-exact
      // values (same substrate, so no NaN caveat) and identical
      // condition unions.
      const std::pair<const RunResult*, const RunResult*> controls[] = {
          {&soft, &soft_clean}, {&native, &native_clean}};
      for (const auto& [injected_ptr, clean_ptr] : controls) {
        const RunResult& injected = *injected_ptr;
        const RunResult& clean = *clean_ptr;
        if (injected.effective != 0) continue;
        ++control_trials;
        for (std::size_t i = 0; i < injected.values.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(injected.values[i]),
                    std::bit_cast<std::uint64_t>(clean.values[i]))
              << "tree " << t << " class " << inj::fault_class_name(cls)
              << " call " << i;
        }
        EXPECT_EQ(injected.observed, clean.observed)
            << "tree " << t << " class " << inj::fault_class_name(cls);
      }
      if (soft.effective != 0) ++effective_trials;

      // Effective single-shot value faults really moved the value.
      if (cls == inj::FaultClass::kPoison ||
          cls == inj::FaultClass::kBitFlip) {
        for (const RunResult* run : {&soft, &native}) {
          for (const inj::FaultSite& s : run->sites) {
            if (!s.effective) continue;
            ++value_mutations_checked;
            EXPECT_NE(inj::canonical_value_bits(s.original),
                      inj::canonical_value_bits(s.injected))
                << "tree " << t << " class "
                << inj::fault_class_name(cls);
          }
        }
      }
    }
  }

  // The sweep must not be vacuous: faults armed, controls occurred, and
  // value mutations were actually checked.
  EXPECT_GT(effective_trials, 5u);
  EXPECT_GT(control_trials, 5u);
  EXPECT_GT(value_mutations_checked, 5u);
}

TEST(FuzzDifferential, Binary32SubstratesAgreeOnRandomTrees) {
  // The clean cross-substrate property in binary32: the same seeded trees
  // and bindings through the host FPU's NativeEvaluator<float> and the
  // softfloat SoftEvaluator<32>. Values only, NaN-canonically. Conditions
  // are not compared: the native evaluator narrows each operand through
  // the FPU, where the narrowing raises flags a monitor sees, while the
  // soft one narrows quietly, so the two flag streams differ by design.
  // The palette's 1e300 and 1e-310 saturate many trees in binary32, so
  // this walks further along the same seed sequence (the first kTrees
  // trees are the binary64 property's); evaluation is cheap without
  // campaigns.
  constexpr std::size_t kTrees32 = 512;
  std::size_t finite = 0;
  for (std::size_t t = 0; t < kTrees32; ++t) {
    stats::Xoshiro256pp rng(0xF022EE5 + t);
    const ir::Expr tree = random_tree(rng, 4);
    for (std::size_t i = 0; i < kCallsPerRun; ++i) {
      const std::array<double, 3> binds = fuzz_bindings(i);
      ir::NativeEvaluator<float> native;
      ir::SoftEvaluator<32> soft(ir::EvalConfig::ieee_strict());
      const double hw = ir::evaluate_tree<double>(tree, native, binds);
      const double sw = ir::evaluate_tree<double>(tree, soft, binds);
      EXPECT_TRUE(inj::same_value(hw, sw))
          << "tree " << t << " call " << i << ": native " << hw << " soft "
          << sw;
      if (std::isfinite(hw)) ++finite;
    }
  }
  // Not vacuous: most calls produce a finite binary32 value.
  EXPECT_GT(finite, kTrees32 * kCallsPerRun / 2);
}

}  // namespace
