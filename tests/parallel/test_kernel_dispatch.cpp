// Dispatch parity for the batch kernel variants: forcing kScalar,
// kPortable, and kAvx2 (where the machine supports it) through the
// sweep32 machinery must produce ZERO mismatches against the independent
// references and IDENTICAL sweep fingerprints — including the sqrt
// tape race, which pins the batched tape engine (running the forced
// variant's batch kernels) and the scalar Tape::execute against the soft
// lane at every forced variant. The
// full-2^32 claim is the overnight sweep job; these are complete sweeps
// of the 2^16 operand spaces plus boundary windows of the 2^32 spaces.
// The variant selects only the execution engine: tape fingerprints and
// the tape compile memo must not depend on it.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/ir.hpp"
#include "parallel/sweep32.hpp"
#include "softfloat/kernels.hpp"

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
      // race_tape stays on: for sqrt this races the batched tape engine
      // (ir::execute_rows) and the scalar Tape::execute stride too — the
      // tape-gate parity claim at every variant.
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
