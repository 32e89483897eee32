// Dispatch parity for the batch kernel variants: forcing kScalar,
// kPortable, and kAvx2 (where the machine supports it) through the
// sweep32 machinery must produce ZERO mismatches against the independent
// references and IDENTICAL sweep fingerprints — including the sqrt
// IR race, which pins the tape interpreter (running the forced variant's
// batch kernels) and the tree walk against the soft lane at every forced
// variant. The full-2^32 claim is the overnight sweep job; these are
// complete sweeps of the 2^16 operand spaces plus boundary windows of the
// 2^32 spaces.
// The variant selects only the execution engine: tape fingerprints and
// the tape compile memo must not depend on it. The binary16 arithmetic
// kernels, which sweep32 does not reach, are checked lane by lane
// against kScalar through the batch entry points.
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/ir.hpp"
#include "parallel/sweep32.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/kernels.hpp"
#include "stats/prng.hpp"

namespace ir = fpq::ir;
namespace sweep32 = fpq::parallel::sweep32;
namespace sf = fpq::softfloat;

namespace {

std::vector<sf::KernelVariant> all_variants() {
  std::vector<sf::KernelVariant> v{sf::KernelVariant::kScalar,
                                   sf::KernelVariant::kPortable};
  if (sf::kernel_variant_available(sf::KernelVariant::kAvx2)) {
    v.push_back(sf::KernelVariant::kAvx2);
  }
  return v;
}

/// Runs the configured sweep once per forced variant and asserts zero
/// mismatches plus a variant-invariant fingerprint.
void expect_variant_invariant_sweep(sweep32::Sweep32Config config,
                                    const char* what) {
  config.manifest_path.clear();  // each run is standalone and complete
  bool have_ref = false;
  std::uint64_t ref_fingerprint = 0;
  for (const sf::KernelVariant v : all_variants()) {
    sf::ScopedKernelVariant forced(v);
    ASSERT_TRUE(forced.applied()) << sf::kernel_variant_name(v);
    const sweep32::Sweep32Report report = sweep32::run_sweep32(config);
    EXPECT_TRUE(report.complete) << what;
    EXPECT_EQ(report.mismatches, 0u)
        << what << " variant " << sf::kernel_variant_name(v)
        << (report.mismatch_samples.empty() ? std::string()
                                            : "\n" +
                                                  report.mismatch_samples[0]);
    if (!have_ref) {
      have_ref = true;
      ref_fingerprint = report.fingerprint;
    } else {
      EXPECT_EQ(report.fingerprint, ref_fingerprint)
          << what << " variant " << sf::kernel_variant_name(v);
    }
  }
}

ir::Expr poly() {
  const ir::Expr x = ir::Expr::variable("x", 0);
  ir::Expr acc = ir::Expr::constant(1.25);
  for (const double c : {-0.5, 0.1, 2.0, -1.0 / 3}) {
    acc = ir::Expr::add(ir::Expr::mul(acc, x), ir::Expr::constant(c));
  }
  return acc;
}

}  // namespace

TEST(KernelCacheIsolation, TapeFingerprintIsVariantIndependent) {
  // The fingerprint names the program + numeric config; executing under
  // a different kernel variant must not change it (manifest resumability
  // across machines depends on this).
  ir::EvalConfig cfg;
  cfg.format_bits = 32;
  std::uint64_t ref = 0;
  bool have_ref = false;
  for (const sf::KernelVariant v : all_variants()) {
    sf::ScopedKernelVariant forced(v);
    ASSERT_TRUE(forced.applied());
    const ir::Tape tape = ir::Tape::compile(poly(), cfg);
    if (!have_ref) {
      have_ref = true;
      ref = tape.fingerprint();
    } else {
      EXPECT_EQ(tape.fingerprint(), ref) << sf::kernel_variant_name(v);
    }
  }
}

TEST(KernelCacheIsolation, SharedTapeCacheIgnoresVariantSwitches) {
  // Tape::cached interns compiled PROGRAMS; switching the kernel variant
  // must return the same tape object, not fork per variant.
  ir::Tape::clear_cache();
  ir::EvalConfig cfg;
  cfg.format_bits = 32;
  const ir::Expr tree = poly();
  sf::ScopedKernelVariant portable(sf::KernelVariant::kPortable);
  const auto first = ir::Tape::cached(tree, cfg);
  {
    sf::ScopedKernelVariant scalar(sf::KernelVariant::kScalar);
    const auto second = ir::Tape::cached(tree, cfg);
    EXPECT_EQ(first.get(), second.get());
  }
  ir::Tape::clear_cache();
}

// A build or CPU without AVX2 dispatches to portable and refuses a forced
// avx2 (CI builds this suite once with AVX2 code generation off).
TEST(KernelDispatchParity, UnavailableAvx2FallsBackToPortable) {
  if (sf::kernel_variant_available(sf::KernelVariant::kAvx2)) {
    EXPECT_EQ(sf::best_kernel_variant(), sf::KernelVariant::kAvx2);
    return;
  }
  EXPECT_EQ(sf::best_kernel_variant(), sf::KernelVariant::kPortable);
  sf::ScopedKernelVariant forced(sf::KernelVariant::kAvx2);
  EXPECT_FALSE(forced.applied());
  EXPECT_NE(sf::active_kernel_variant(), sf::KernelVariant::kAvx2);
}

// The 2^16-source conversions: the ENTIRE operand space per variant.
TEST(KernelDispatchParity, WidenFrom16FullSpace) {
  sweep32::Sweep32Config config;
  config.op = sweep32::SweepOp::kFromBinary16;
  config.chunk_bits = 12;
  expect_variant_invariant_sweep(config, "from16");
}

TEST(KernelDispatchParity, WidenFromBf16FullSpace) {
  sweep32::Sweep32Config config;
  config.op = sweep32::SweepOp::kFromBFloat16;
  config.chunk_bits = 12;
  expect_variant_invariant_sweep(config, "from_bf16");
}

// Boundary windows of the 2^32 spaces: each window crosses the class
// borders the vectorized kernels branch on (zero/subnormal/normal, the
// binary16 result bands, integer binades, max-finite/inf/NaN, and the
// positive/negative seam at 2^31).
TEST(KernelDispatchParity, UnaryOpBoundaryWindows) {
  struct Window {
    std::uint64_t begin;
    const char* what;
  };
  constexpr std::uint64_t kWin = std::uint64_t{1} << 15;
  const Window windows[] = {
      {0x0000'0000u, "zero/subnormal border"},
      {0x337F'C000u, "binary16 deep-result band"},
      {0x3F00'0000u, "start of the benchmarked range"},
      {0x3F7F'8000u, "around one"},
      {0x4AFF'C000u, "integer binade border"},
      {0x477F'C000u, "binary16 overflow border"},
      {0x7F7F'C000u, "max-finite/inf/NaN border"},
      {0x8000'0000u - kWin / 2, "positive/negative seam"},
      {0xFF7F'C000u, "negative max-finite/inf/NaN border"},
  };
  const sweep32::SweepOp ops[] = {
      sweep32::SweepOp::kSqrt,       sweep32::SweepOp::kRoundToIntegral,
      sweep32::SweepOp::kToBinary16, sweep32::SweepOp::kToBFloat16,
      sweep32::SweepOp::kToBinary64,
  };
  for (const sweep32::SweepOp op : ops) {
    for (const Window& w : windows) {
      sweep32::Sweep32Config config;
      config.op = op;
      config.begin = w.begin;
      config.end = w.begin + kWin;
      config.chunk_bits = 13;
      // race_tape stays on: for sqrt this races the tape interpreter
      // (ir::execute_rows) and the tree walk stride too — the tape-gate
      // parity claim at every variant.
      expect_variant_invariant_sweep(
          config, (std::string(sweep32::sweep_op_name(op)) + " " + w.what)
                      .c_str());
    }
  }
}

// The corner corpus (div/fma pairs included) under every forced variant.
TEST(KernelDispatchParity, CornerCorpusEveryVariant) {
  for (const sf::KernelVariant v : all_variants()) {
    sf::ScopedKernelVariant forced(v);
    ASSERT_TRUE(forced.applied());
    const sweep32::CorpusReport report = sweep32::run_corner_corpus(512);
    EXPECT_EQ(report.mismatches, 0u)
        << sf::kernel_variant_name(v)
        << (report.mismatch_samples.empty() ? std::string()
                                            : "\n" +
                                                  report.mismatch_samples[0]);
    EXPECT_GT(report.checked, 0u);
  }
}

// The binary16 kernel rows run the dispatched batch entry points and fold
// their values and flags: sqrt16's whole space and a pair-row prefix that
// gives every first operand two partners must be clean, with one
// fingerprint per row under every variant.
TEST(KernelDispatchParity, Binary16KernelRowsEveryVariant) {
  for (const sweep32::SweepOp op :
       {sweep32::SweepOp::kSqrt16, sweep32::SweepOp::kAdd16,
        sweep32::SweepOp::kSub16, sweep32::SweepOp::kMul16,
        sweep32::SweepOp::kDiv16, sweep32::SweepOp::kFma16}) {
    sweep32::Sweep32Config config;
    config.op = op;
    config.end = op == sweep32::SweepOp::kSqrt16 ? 0 : std::uint64_t{1} << 17;
    config.chunk_bits = 14;
    expect_variant_invariant_sweep(config, sweep32::sweep_op_name(op));
  }
}

// The binary16 arithmetic kernels and operand narrowing (the batched
// tape's binary16 engine) against the kScalar reference loops: every
// first-operand encoding, seeded partners salted with zero, subnormal,
// max-finite, infinity and NaN encodings, all five rounding modes with
// and without FTZ and DAZ. Every lane must match bit for bit and flag
// for flag.
TEST(KernelDispatchParity, Binary16ArithmeticEveryVariant) {
  using F16 = sf::Float16;
  constexpr std::size_t kN = 0x10000;
  const std::uint16_t specials[] = {
      0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x8400, 0x3C00, 0xBC00,
      0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7C01, 0x7E00, 0xFE2A, 0x0155};
  fpq::stats::Xoshiro256pp g(0xF16);
  const auto partner = [&](std::size_t i, std::size_t salt) {
    const auto random = static_cast<std::uint16_t>(g());
    return F16{i % 8 == salt ? specials[(i / 8) % std::size(specials)]
                             : random};
  };
  std::vector<F16> a(kN), b(kN), c(kN);
  // Operand columns for the narrowing, read at stride 2: near-binary16
  // doubles (the widened encoding moved by up to 2^43 ulps, which crosses
  // every rounding boundary and reaches NaN patterns from ±0 and ±inf) and
  // raw 64-bit patterns (double subnormals, huge values, NaN payloads).
  std::vector<double> wide(2 * kN);
  sf::Env exact;
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = F16{static_cast<std::uint16_t>(i)};
    b[i] = partner(i, 0);
    c[i] = partner(i, 4);
    const double value = sf::to_native(sf::convert<64>(a[i], exact));
    wide[2 * i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) +
                                        (g() >> 20) -
                                        (std::uint64_t{1} << 43));
    wide[2 * i + 1] = std::bit_cast<double>(g());
  }

  struct Lanes {
    std::vector<F16> out[8];
    std::vector<unsigned> flags[6];
  };
  const auto run = [&](const sf::Env& config) {
    Lanes r;
    for (auto& o : r.out) o.resize(kN);
    for (auto& f : r.flags) f.assign(kN, 0u);
    sf::Env env = config;
    sf::add_n<16>(a.data(), b.data(), r.out[0].data(), r.flags[0].data(), kN,
                  env);
    sf::sub_n<16>(a.data(), b.data(), r.out[1].data(), r.flags[1].data(), kN,
                  env);
    sf::mul_n<16>(a.data(), b.data(), r.out[2].data(), r.flags[2].data(), kN,
                  env);
    sf::div_n<16>(a.data(), b.data(), r.out[3].data(), r.flags[3].data(), kN,
                  env);
    sf::sqrt_n<16>(a.data(), r.out[4].data(), r.flags[4].data(), kN, env);
    sf::fma_n<16>(a.data(), b.data(), c.data(), r.out[5].data(),
                  r.flags[5].data(), kN, env);
    sf::narrow_from_double_n<16>(wide.data(), 2, r.out[6].data(), kN, env);
    sf::narrow_from_double_n<16>(wide.data() + 1, 2, r.out[7].data(), kN,
                                 env);
    return r;
  };
  const char* const names[] = {"add", "sub", "mul", "div", "sqrt", "fma",
                               "narrow near-binary16", "narrow raw"};

  const std::vector<sf::KernelVariant> variants = all_variants();
  ASSERT_EQ(variants.front(), sf::KernelVariant::kScalar);
  for (const sf::Rounding mode : fpq::parallel::kAllRoundings) {
    for (const unsigned flush : {0u, 1u, 2u, 3u}) {
      sf::Env config(mode);
      config.set_flush_to_zero((flush & 1u) != 0);
      config.set_denormals_are_zero((flush & 2u) != 0);
      Lanes ref;
      {
        sf::ScopedKernelVariant forced(sf::KernelVariant::kScalar);
        ASSERT_TRUE(forced.applied());
        ref = run(config);
      }
      for (std::size_t v = 1; v < variants.size(); ++v) {
        sf::ScopedKernelVariant forced(variants[v]);
        ASSERT_TRUE(forced.applied());
        const Lanes got = run(config);
        for (std::size_t op = 0; op < std::size(names); ++op) {
          for (std::size_t i = 0; i < kN; ++i) {
            ASSERT_EQ(got.out[op][i].bits, ref.out[op][i].bits)
                << names[op] << " lane " << i << " a " << a[i].bits << " b "
                << b[i].bits << " c " << c[i].bits << " mode "
                << static_cast<int>(mode) << " ftz/daz " << flush << " "
                << sf::kernel_variant_name(variants[v]);
            if (op < std::size(got.flags)) {
              ASSERT_EQ(got.flags[op][i], ref.flags[op][i])
                  << names[op] << " lane " << i << " a " << a[i].bits
                  << " b " << b[i].bits << " c " << c[i].bits << " mode "
                  << static_cast<int>(mode) << " ftz/daz " << flush << " "
                  << sf::kernel_variant_name(variants[v]);
            }
          }
        }
      }
    }
  }
}
