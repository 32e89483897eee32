// The differential proof for the IR retarget: the unified evaluation core
// (rewrite passes + SoftEvaluator) is BIT-IDENTICAL — values and sticky
// flags — to the legacy emulated-pipeline evaluator it replaced, across
// random expressions, every pipeline configuration, and all five rounding
// modes; quiz::run reproduces op sequences issued directly on each
// backend's substrate, including their ConditionSets; and the quiz answer
// key derived through the IR path still matches the declared standard.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/ground_truth.hpp"
#include "fpmon/hardware.hpp"
#include "fpmon/monitor.hpp"
#include "ir/ir.hpp"
#include "optprobe/emulated_pipeline.hpp"
#include "softfloat/env.hpp"
#include "softfloat/ops.hpp"
#include "stats/prng.hpp"

namespace ir = fpq::ir;
namespace sf = fpq::softfloat;
namespace st = fpq::stats;
namespace quiz = fpq::quiz;
namespace mon = fpq::mon;
using E = ir::Expr;
using K = ir::ExprKind;

namespace {

// ---------------------------------------------------------------------
// The legacy evaluator, reproduced verbatim from the pre-IR emulated
// pipeline (evaluation-time rewrites buried in the recursion, one sticky
// Env for the whole walk). This is the reference the unified core must
// match bit for bit.
// ---------------------------------------------------------------------

void legacy_flatten(const E& e, std::vector<E>& out) {
  const E::Node& n = e.node();
  if (n.kind == K::kAdd) {
    legacy_flatten(n.children[0], out);
    legacy_flatten(n.children[1], out);
  } else {
    out.push_back(e);
  }
}

sf::Float64 legacy_eval(const E& e, const ir::EvalConfig& cfg, sf::Env& env);

sf::Float64 legacy_pairwise(const std::vector<sf::Float64>& xs,
                            std::size_t lo, std::size_t hi, sf::Env& env) {
  if (hi - lo == 1) return xs[lo];
  const std::size_t mid = lo + (hi - lo) / 2;
  return sf::add(legacy_pairwise(xs, lo, mid, env),
                 legacy_pairwise(xs, mid, hi, env), env);
}

sf::Float64 legacy_eval(const E& e, const ir::EvalConfig& cfg,
                        sf::Env& env) {
  const E::Node& n = e.node();
  switch (n.kind) {
    case K::kConst:
      return n.value;
    case K::kAdd: {
      if (cfg.reassociate) {
        std::vector<E> addends;
        legacy_flatten(e, addends);
        if (addends.size() > 2) {
          std::vector<sf::Float64> values;
          values.reserve(addends.size());
          for (const E& a : addends) values.push_back(legacy_eval(a, cfg, env));
          return legacy_pairwise(values, 0, values.size(), env);
        }
      }
      if (cfg.contract_mul_add) {
        const E::Node& l = n.children[0].node();
        const E::Node& r = n.children[1].node();
        if (l.kind == K::kMul) {
          return sf::fma(legacy_eval(l.children[0], cfg, env),
                         legacy_eval(l.children[1], cfg, env),
                         legacy_eval(n.children[1], cfg, env), env);
        }
        if (r.kind == K::kMul) {
          return sf::fma(legacy_eval(r.children[0], cfg, env),
                         legacy_eval(r.children[1], cfg, env),
                         legacy_eval(n.children[0], cfg, env), env);
        }
      }
      return sf::add(legacy_eval(n.children[0], cfg, env),
                     legacy_eval(n.children[1], cfg, env), env);
    }
    case K::kSub: {
      if (cfg.contract_mul_add) {
        const E::Node& l = n.children[0].node();
        if (l.kind == K::kMul) {
          return sf::fma(legacy_eval(l.children[0], cfg, env),
                         legacy_eval(l.children[1], cfg, env),
                         legacy_eval(n.children[1], cfg, env).negated(), env);
        }
      }
      return sf::sub(legacy_eval(n.children[0], cfg, env),
                     legacy_eval(n.children[1], cfg, env), env);
    }
    case K::kMul:
      return sf::mul(legacy_eval(n.children[0], cfg, env),
                     legacy_eval(n.children[1], cfg, env), env);
    case K::kDiv:
      return sf::div(legacy_eval(n.children[0], cfg, env),
                     legacy_eval(n.children[1], cfg, env), env);
    case K::kSqrt:
      return sf::sqrt(legacy_eval(n.children[0], cfg, env), env);
    case K::kFma:
      return sf::fma(legacy_eval(n.children[0], cfg, env),
                     legacy_eval(n.children[1], cfg, env),
                     legacy_eval(n.children[2], cfg, env), env);
    default:
      break;
  }
  return sf::Float64::quiet_nan();
}

ir::Outcome legacy_evaluate(const E& e, const ir::EvalConfig& cfg) {
  sf::Env env(cfg.rounding);
  env.set_flush_to_zero(cfg.flush_to_zero);
  env.set_denormals_are_zero(cfg.denormals_are_zero);
  ir::Outcome r;
  r.value = legacy_eval(e, cfg, env);
  r.flags = env.flags();
  return r;
}

// ---------------------------------------------------------------------
// Random expression generator over the legacy node kinds, seeded with
// the constants that exercise every flag: zeros, subnormals, huge values,
// exact small integers, and non-representable fractions.
// ---------------------------------------------------------------------

E random_tree(st::Xoshiro256pp& g, int depth) {
  static const double kPool[] = {
      0.0,     -0.0,    1.0,    -1.0,   0.5,     3.0,
      0.1,     1.0 / 3, -2.5,   7.25,   1e16,    -1e16,
      1e300,   -1e300,  1e-300, 5e-324, 2.2250738585072014e-308,
      1.0 + 0x1.0p-30, 1.7976931348623157e308};
  if (depth <= 0 || st::uniform_below(g, 4) == 0) {
    return E::constant(kPool[st::uniform_below(g, std::size(kPool))]);
  }
  switch (st::uniform_below(g, 6)) {
    case 0:
      return E::add(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 1:
      return E::sub(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 2:
      return E::mul(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 3:
      return E::div(random_tree(g, depth - 1), random_tree(g, depth - 1));
    case 4:
      return E::sqrt(random_tree(g, depth - 1));
    default:
      return E::fma(random_tree(g, depth - 1), random_tree(g, depth - 1),
                    random_tree(g, depth - 1));
  }
}

std::vector<ir::EvalConfig> pipeline_configs() {
  std::vector<ir::EvalConfig> out;
  const sf::Rounding modes[] = {
      sf::Rounding::kNearestEven, sf::Rounding::kTowardZero,
      sf::Rounding::kDown, sf::Rounding::kUp, sf::Rounding::kNearestAway};
  for (const auto r : modes) {
    ir::EvalConfig strict;
    strict.rounding = r;
    out.push_back(strict);
    ir::EvalConfig o3 = strict;
    o3.contract_mul_add = true;
    out.push_back(o3);
    ir::EvalConfig reassoc = strict;
    reassoc.reassociate = true;
    out.push_back(reassoc);
    ir::EvalConfig fast = strict;
    fast.contract_mul_add = true;
    fast.reassociate = true;
    fast.flush_to_zero = true;
    fast.denormals_are_zero = true;
    out.push_back(fast);
  }
  return out;
}

TEST(IrVsLegacy, RandomTreesBitIdenticalAcrossConfigsAndRoundings) {
  st::Xoshiro256pp g(0xD18DA);
  const auto configs = pipeline_configs();
  for (int i = 0; i < 150; ++i) {
    const E tree = random_tree(g, 5);
    for (const auto& cfg : configs) {
      const auto legacy = legacy_evaluate(tree, cfg);
      const auto unified = ir::evaluate(tree, cfg);
      ASSERT_EQ(legacy.value.bits, unified.value.bits)
          << tree.to_string() << "\n  rounding "
          << sf::rounding_to_string(cfg.rounding) << " contract "
          << cfg.contract_mul_add << " reassoc " << cfg.reassociate
          << " ftz " << cfg.flush_to_zero;
      ASSERT_EQ(legacy.flags, unified.flags)
          << tree.to_string() << ": " << sf::flags_to_string(legacy.flags)
          << " vs " << sf::flags_to_string(unified.flags);
    }
  }
}

TEST(IrVsLegacy, TapeMatchesLegacyAcrossConfigsAndRoundings) {
  // Third leg of the differential: the compiled tape (with CSE and
  // constant folding enabled) must agree with the LEGACY evaluator too,
  // not just with the tree walk it was pinned against.
  st::Xoshiro256pp g(0x7A9ED1);
  const auto configs = pipeline_configs();
  for (int i = 0; i < 60; ++i) {
    const E tree = random_tree(g, 5);
    for (const auto& cfg : configs) {
      const auto legacy = legacy_evaluate(tree, cfg);
      const auto taped = ir::execute(ir::Tape::compile(tree, cfg));
      ASSERT_EQ(legacy.value.bits, taped.value.bits)
          << tree.to_string() << "\n  rounding "
          << sf::rounding_to_string(cfg.rounding) << " contract "
          << cfg.contract_mul_add << " reassoc " << cfg.reassociate;
      ASSERT_EQ(legacy.flags, taped.flags)
          << tree.to_string() << ": " << sf::flags_to_string(legacy.flags)
          << " vs " << sf::flags_to_string(taped.flags);
    }
  }
}

TEST(IrVsLegacy, DeepAdditionChainsExerciseReassociation) {
  // Long +-chains are the reassociation pass's whole reason to exist;
  // sweep lengths 3..24 so every pairwise split shape appears.
  st::Xoshiro256pp g(0xCAB1E);
  const auto configs = pipeline_configs();
  for (std::size_t len = 3; len <= 24; ++len) {
    std::vector<E> terms;
    for (std::size_t i = 0; i < len; ++i) {
      terms.push_back(random_tree(g, 2));
    }
    E chain = terms[0];
    for (std::size_t i = 1; i < len; ++i) chain = E::add(chain, terms[i]);
    for (const auto& cfg : configs) {
      const auto legacy = legacy_evaluate(chain, cfg);
      const auto unified = ir::evaluate(chain, cfg);
      ASSERT_EQ(legacy.value.bits, unified.value.bits)
          << "chain length " << len;
      ASSERT_EQ(legacy.flags, unified.flags) << "chain length " << len;
    }
  }
}

TEST(IrVsLegacy, OptprobeFacadeMatchesLegacyOnItsOwnDemos) {
  namespace opt = fpq::opt;
  const E demos[] = {opt::demo_contraction_sensitive(),
                     opt::demo_reassociation_sensitive(),
                     opt::demo_flush_sensitive()};
  const opt::PipelineConfig cfgs[] = {opt::PipelineConfig::ieee_strict(),
                                      opt::PipelineConfig::o3_like(),
                                      opt::PipelineConfig::fast_math_like()};
  for (const auto& demo : demos) {
    for (const auto& cfg : cfgs) {
      const auto now = opt::evaluate(demo, cfg);
      const auto then = legacy_evaluate(demo, opt::ir_config(cfg));
      EXPECT_EQ(now.value.bits, then.value.bits);
      EXPECT_EQ(now.flags, then.flags);
    }
  }
}

// ---------------------------------------------------------------------
// Backend differential: quiz::run of a tree is the same op sequence a
// hand-written loop would issue directly on the row's substrate — same
// result bits, same ConditionSet — on EVERY backend in the registry.
// ---------------------------------------------------------------------

// fma(x, y, z) + sqrt(x*x) - y/z issued directly on the softfloat engine,
// in one Env carrying the row's flush modes.
template <int kBits>
quiz::RunResult direct_soft(const quiz::Backend& b, const double (&xs)[3]) {
  sf::Env env;
  env.set_flush_to_zero(b.flush_to_zero);
  env.set_denormals_are_zero(b.denormals_are_zero);
  sf::Env quiet;  // operand rounding and widening raise nothing
  quiet.set_denormals_are_zero(b.denormals_are_zero);
  auto narrow = [&](double v) {
    if constexpr (kBits == 64) {
      return sf::from_native(v);
    } else {
      return sf::convert<kBits>(sf::from_native(v), quiet);
    }
  };
  const auto x = narrow(xs[0]);
  const auto y = narrow(xs[1]);
  const auto z = narrow(xs[2]);
  const auto f = sf::fma(x, y, z, env);
  const auto s = sf::sqrt(sf::mul(x, x, env), env);
  const auto q = sf::div(y, z, env);
  const auto r = sf::sub(sf::add(f, s, env), q, env);
  sf::Env exact;
  return {sf::to_native(sf::convert<64>(r, exact)),
          mon::ConditionSet::from_softfloat_flags(env.flags())};
}

// The same sequence on the host FPU through mon::host's opaque ops,
// under one ScopedMonitor.
quiz::RunResult direct_native(const quiz::Backend& b,
                              const double (&xs)[3]) {
  namespace host = mon::host;
  mon::ScopedMonitor monitor;
  double r;
  if (b.format_bits == 64) {
    const double f = host::fma(xs[0], xs[1], xs[2]);
    const double s = host::sqrt(host::mul(xs[0], xs[0]));
    const double q = host::div(xs[1], xs[2]);
    r = host::sub(host::add(f, s), q);
  } else {
    const float x = host::narrow(xs[0]);
    const float y = host::narrow(xs[1]);
    const float z = host::narrow(xs[2]);
    const float f = host::fma(x, y, z);
    const float s = host::sqrt(host::mul(x, x));
    const float q = host::div(y, z);
    r = host::sub(host::add(f, s), q);
  }
  return {r, monitor.stop()};
}

quiz::RunResult direct(const quiz::Backend& b, const double (&xs)[3]) {
  if (b.native) return direct_native(b, xs);
  switch (b.format_bits) {
    case 16:
      return direct_soft<16>(b, xs);
    case 32:
      return direct_soft<32>(b, xs);
    case sf::kBFloat16:
      return direct_soft<sf::kBFloat16>(b, xs);
    default:
      return direct_soft<64>(b, xs);
  }
}

TEST(IrVsBackends, TreeEvaluationMatchesDirectOpSequences) {
  const double pool[] = {0.0,  -0.0, 1.0,   0.1,  -2.5,
                         1e16, 3.0,  7.25,  1e300, 1e-300};
  const auto x = E::variable("x", 0);
  const auto y = E::variable("y", 1);
  const auto z = E::variable("z", 2);
  const auto tree =
      E::sub(E::add(E::fma(x, y, z), E::sqrt(E::mul(x, x))), E::div(y, z));
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    st::Xoshiro256pp g(0xBEEF);
    for (int i = 0; i < 64; ++i) {
      const double xs[] = {pool[st::uniform_below(g, std::size(pool))],
                           pool[st::uniform_below(g, std::size(pool))],
                           pool[st::uniform_below(g, std::size(pool))]};
      const quiz::RunResult via_tree = quiz::run(backend, tree, xs);
      const quiz::RunResult by_hand = direct(backend, xs);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(via_tree.value),
                std::bit_cast<std::uint64_t>(by_hand.value))
          << backend.name << " x=" << xs[0] << " y=" << xs[1]
          << " z=" << xs[2];
      ASSERT_EQ(via_tree.conditions, by_hand.conditions)
          << backend.name << ": " << via_tree.conditions.to_string()
          << " vs " << by_hand.conditions.to_string();
    }
  }
}

// ---------------------------------------------------------------------
// The answer key: ground truth is derived by executing IR trees on each
// registry row (witness.cpp evaluates through quiz::run), and the
// executed key must still match the declared standard truths everywhere —
// the FTZ backend included, whose divergence lives in its witnesses.
// ---------------------------------------------------------------------

TEST(IrAnswerKey, EveryRegistryBackendStillMatchesTheStandardKey) {
  for (const quiz::Backend& backend : quiz::backend_registry()) {
    const auto key = quiz::derive_answer_key(backend);
    std::string mismatch;
    EXPECT_TRUE(quiz::key_matches_standard(key, &mismatch))
        << backend.name << " diverged at " << mismatch;
  }
}

}  // namespace
