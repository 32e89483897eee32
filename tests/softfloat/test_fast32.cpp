// Differential tests for the binary32 fast path and the vectorized batch
// kernels (softfloat/fast32.hpp, softfloat/batch_kernels_*.cpp): every
// kernel variant must be bit- and flag-identical to the scalar softfloat
// reference, across all five rounding modes and every FTZ/DAZ
// combination. The full proof is the exhaustive sweep32 gate; this suite
// is the fast regression: a ULP-stratified 2^16 lattice seeded with the
// sweep corner corpus, exhaustive 2^16 sweeps where the operand space
// permits, and the corpus cross-product for the fallback-lane predicate.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/sweep32_ref.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/batch_kernels_impl.hpp"
#include "softfloat/detail.hpp"
#include "softfloat/fast32.hpp"
#include "softfloat/kernels.hpp"
#include "softfloat/ops.hpp"

namespace sf = fpq::softfloat;
namespace f32 = fpq::softfloat::fast32;
namespace sweep32 = fpq::parallel::sweep32;

namespace {

struct EnvCfg {
  sf::Rounding mode;
  bool ftz;
  bool daz;
};

constexpr sf::Rounding kModes[] = {
    sf::Rounding::kNearestEven, sf::Rounding::kTowardZero,
    sf::Rounding::kDown, sf::Rounding::kUp, sf::Rounding::kNearestAway};

sf::Env make_env(const EnvCfg& cfg) {
  sf::Env env(cfg.mode);
  env.set_flush_to_zero(cfg.ftz);
  env.set_denormals_are_zero(cfg.daz);
  return env;
}

std::string cfg_name(const EnvCfg& cfg) {
  std::string s = "mode=";
  s += std::to_string(static_cast<int>(cfg.mode));
  if (cfg.ftz) s += " ftz";
  if (cfg.daz) s += " daz";
  return s;
}

/// The ULP-stratified operand lattice, seeded with every sign-mirrored
/// corpus encoding so the special/boundary cases are always present.
std::vector<sf::Float32> lattice32(std::size_t n, std::uint64_t seed) {
  std::vector<sf::Float32> v;
  v.reserve(n);
  for (const std::uint32_t p : sweep32::corner32_patterns()) {
    v.push_back(sf::Float32::from_bits(p));
    v.push_back(sf::Float32::from_bits(p | 0x8000'0000u));
  }
  fpq::parallel::sweep_detail::Sm64 g(seed);
  while (v.size() < n) {
    v.push_back(sf::Float32::from_bits(sweep32::ulp_stratified_pattern(g)));
  }
  v.resize(n);
  return v;
}

struct LaneResult {
  std::vector<std::uint64_t> bits;
  std::vector<unsigned> flags;
  bool operator==(const LaneResult&) const = default;
};

/// Runs `call` (which invokes a batch entry point into the given output
/// span) under a forced kernel variant and packages bits + flags.
template <typename F, typename Call>
LaneResult run_variant(sf::KernelVariant variant, std::size_t n,
                       const EnvCfg& cfg, Call call) {
  sf::ScopedKernelVariant forced(variant);
  EXPECT_TRUE(forced.applied());
  std::vector<F> out(n);
  std::vector<unsigned> flags(n, 0);
  sf::Env env = make_env(cfg);
  call(out.data(), flags.data(), env);
  LaneResult r;
  r.bits.reserve(n);
  for (const F& x : out) r.bits.push_back(x.bits);
  r.flags = std::move(flags);
  return r;
}

std::vector<sf::KernelVariant> accelerated_variants() {
  std::vector<sf::KernelVariant> v{sf::KernelVariant::kPortable};
  if (sf::kernel_variant_available(sf::KernelVariant::kAvx2)) {
    v.push_back(sf::KernelVariant::kAvx2);
  }
  return v;
}

/// Asserts every accelerated variant matches kScalar lane-for-lane.
template <typename F, typename Call>
void expect_parity(const char* what, std::size_t n, const EnvCfg& cfg,
                   Call call) {
  const LaneResult ref =
      run_variant<F>(sf::KernelVariant::kScalar, n, cfg, call);
  for (const sf::KernelVariant v : accelerated_variants()) {
    const LaneResult got = run_variant<F>(v, n, cfg, call);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref.bits[i], got.bits[i])
          << what << " lane " << i << " variant "
          << sf::kernel_variant_name(v) << " " << cfg_name(cfg);
      ASSERT_EQ(ref.flags[i], got.flags[i])
          << what << " flags lane " << i << " variant "
          << sf::kernel_variant_name(v) << " " << cfg_name(cfg);
    }
  }
}

}  // namespace

// The 2^16 stratified add/sub/mul/div/fma lattice: every accelerated
// variant vs the scalar reference, 5 modes x FTZ/DAZ.
TEST(Fast32Lattice, BinaryOpsMatchScalarAllModesAllEnvs) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  const auto a = lattice32(kN, 0xA5A5'0001);
  const auto b = lattice32(kN, 0x5A5A'0002);
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "add", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::add_n<32>(a.data(), b.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float32>(
          "sub", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::sub_n<32>(a.data(), b.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float32>(
          "mul", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::mul_n<32>(a.data(), b.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float32>(
          "div", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::div_n<32>(a.data(), b.data(), out, fl, kN, env);
          });
    }
  }
}

TEST(Fast32Lattice, FmaMatchesScalarAllModesAllEnvs) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  const auto a = lattice32(kN, 0x1111'0003);
  const auto b = lattice32(kN, 0x2222'0004);
  const auto c = lattice32(kN, 0x3333'0005);
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "fma", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::fma_n<32>(a.data(), b.data(), c.data(), out, fl, kN, env);
          });
    }
  }
}

// The AVX2-vectorized unary ops and narrowing converts over the same
// lattice (their exhaustive proof is the full-2^32 sweep gate).
TEST(Fast32Lattice, UnaryAndNarrowMatchScalarAllModesAllEnvs) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  const auto a = lattice32(kN, 0x7777'0006);
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "sqrt", kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::sqrt_n<32>(a.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float32>(
          "round_int", kN, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::round_int_n<32>(a.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float16>(
          "narrow16", kN, cfg,
          [&](sf::Float16* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<16, 32>(a.data(), out, fl, kN, env);
          });
      expect_parity<sf::BFloat16>(
          "narrow_bf16", kN, cfg,
          [&](sf::BFloat16* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<sf::kBFloat16, 32>(a.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float64>(
          "widen64", kN, cfg,
          [&](sf::Float64* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<64, 32>(a.data(), out, fl, kN, env);
          });
    }
  }
}

// binary64 -> binary32: random 64-bit patterns plus widened lattice
// values with the low discarded bits perturbed to straddle every tie.
TEST(Fast32Lattice, Narrow64MatchesScalarAllModes) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  const auto seeds = lattice32(kN / 4, 0xBEEF'0007);
  std::vector<sf::Float64> a;
  a.reserve(kN);
  sf::Env quiet;
  fpq::parallel::sweep_detail::Sm64 g(0xD00D'0008);
  for (const sf::Float32 s : seeds) {
    const std::uint64_t w = sf::convert<64>(s, quiet).bits;
    a.push_back(sf::Float64::from_bits(w));
    a.push_back(sf::Float64::from_bits(w | (std::uint64_t{1} << 28)));
    a.push_back(sf::Float64::from_bits(w + 1));
    a.push_back(sf::Float64::from_bits(w == 0 ? g.next() : w - 1));
  }
  while (a.size() < kN) a.push_back(sf::Float64::from_bits(g.next()));
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "narrow64_32", kN, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<32, 64>(a.data(), out, fl, kN, env);
          });
    }
  }
}

// The 16-bit source formats are small enough to prove exhaustively.
TEST(Fast32Exhaustive, WidenFrom16AndBf16AllEncodings) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  std::vector<sf::Float16> h(kN);
  std::vector<sf::BFloat16> bf(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    h[i] = sf::Float16::from_bits(static_cast<std::uint16_t>(i));
    bf[i] = sf::BFloat16::from_bits(static_cast<std::uint16_t>(i));
  }
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "widen_16_32", kN, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<32, 16>(h.data(), out, fl, kN, env);
          });
      expect_parity<sf::Float32>(
          "widen_bf16_32", kN, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::convert_n<32, sf::kBFloat16>(bf.data(), out, fl, kN, env);
          });
    }
  }
}

// The subnormal-operand predicate (fast32::is_subnormal32 on the widened
// value, which decides DAZ flushes and denormal-input flags) must
// classify exactly like the encoding itself, and the fast path must agree
// with the scalar reference on every corpus encoding cross-pair — the
// encodings built to sit ON the fallback / fast-path boundary.
TEST(Fast32Corpus, FallbackPredicateMatchesEncodingClassification) {
  for (const std::uint32_t p : sweep32::corner32_patterns()) {
    for (const std::uint32_t s : {0u, 0x8000'0000u}) {
      const sf::Float32 x = sf::Float32::from_bits(p | s);
      const double w = f32::widen(x);
      EXPECT_EQ(f32::is_subnormal32(w),
                x.biased_exponent() == 0 && x.fraction() != 0 &&
                    x.is_finite())
          << std::hex << x.bits;
      // Exact widen/renarrow roundtrip (quiet NaNs keep payload; the
      // signaling bit is quieted by the renarrowing convert, so sNaNs
      // are the one legitimate difference).
      sf::Env quiet;
      const sf::Float32 back = sf::convert<32>(sf::from_native(w), quiet);
      if (!x.is_nan()) {
        EXPECT_EQ(back.bits, x.bits) << std::hex << x.bits;
      } else {
        EXPECT_TRUE(back.is_nan());
      }
    }
  }
}

TEST(Fast32Corpus, CrossPairsMatchScalarEveryMode) {
  std::vector<sf::Float32> ops;
  for (const std::uint32_t p : sweep32::corner32_patterns()) {
    ops.push_back(sf::Float32::from_bits(p));
    ops.push_back(sf::Float32::from_bits(p | 0x8000'0000u));
  }
  const std::size_t m = ops.size();
  std::vector<sf::Float32> a(m * m), b(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a[i * m + j] = ops[i];
      b[i * m + j] = ops[j];
    }
  }
  const std::size_t n = a.size();
  for (const sf::Rounding mode : kModes) {
    for (const bool flush : {false, true}) {
      const EnvCfg cfg{mode, flush, flush};
      expect_parity<sf::Float32>(
          "corpus add", n, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::add_n<32>(a.data(), b.data(), out, fl, n, env);
          });
      expect_parity<sf::Float32>(
          "corpus mul", n, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::mul_n<32>(a.data(), b.data(), out, fl, n, env);
          });
      expect_parity<sf::Float32>(
          "corpus div", n, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::div_n<32>(a.data(), b.data(), out, fl, n, env);
          });
      expect_parity<sf::Float32>(
          "corpus fma(a,b,a)", n, cfg,
          [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
            sf::fma_n<32>(a.data(), b.data(), a.data(), out, fl, n, env);
          });
    }
  }
}

// Batch contract: out may alias an input.
TEST(Fast32Kernels, AliasingOutputOverInput) {
  constexpr std::size_t kN = 4096;
  const auto a0 = lattice32(kN, 0xFEED'0009);
  const auto b = lattice32(kN, 0xFACE'000A);
  const EnvCfg cfg{sf::Rounding::kNearestEven, false, false};
  const LaneResult ref = run_variant<sf::Float32>(
      sf::KernelVariant::kScalar, kN, cfg,
      [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
        auto a = a0;
        sf::add_n<32>(a.data(), b.data(), a.data(), fl, kN, env);
        for (std::size_t i = 0; i < kN; ++i) out[i] = a[i];
      });
  for (const sf::KernelVariant v : accelerated_variants()) {
    const LaneResult got = run_variant<sf::Float32>(
        v, kN, cfg, [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
          auto a = a0;
          sf::add_n<32>(a.data(), b.data(), a.data(), fl, kN, env);
          for (std::size_t i = 0; i < kN; ++i) out[i] = a[i];
        });
    EXPECT_EQ(ref, got) << sf::kernel_variant_name(v);
  }
}

// fold32's tiny band (|v| < 2^-126) against the scalar engine's
// round_pack<32> on the same double: every binade from 2^-127 down to the
// smallest normal double, significands at each rounding boundary of the
// subnormal grid and of the 24-bit grid, both signs, every mode, FTZ off
// and on.
TEST(Fast32Primitives, TinyFoldMatchesRoundPack) {
  namespace impl = fpq::softfloat::kernels::impl;
  fpq::parallel::sweep_detail::Sm64 g(0x7171'000D);
  const std::uint64_t frac_mask = f32::kFracMask64;
  for (int e = -127; e >= -1022; --e) {
    const int q = std::min(-e - 97, 63);
    std::vector<std::uint64_t> fracs = {0, frac_mask, g.next() & frac_mask,
                                        g.next() & frac_mask};
    for (const int bit : {q - 1, 28, 29}) {
      if (bit >= 52) continue;
      const std::uint64_t half = std::uint64_t{1} << bit;
      const std::uint64_t above = (g.next() & frac_mask) & ~((half << 1) - 1);
      for (const std::uint64_t f : {above | half, (above | half) - 1,
                                    (above | half) + 1, above | (half - 1)}) {
        fracs.push_back(f & frac_mask);
      }
    }
    for (const std::uint64_t frac : fracs) {
      for (const std::uint64_t sign : {std::uint64_t{0}, std::uint64_t{1}}) {
        const std::uint64_t rb =
            (sign << 63) | (static_cast<std::uint64_t>(e + 1023) << 52) | frac;
        for (const sf::Rounding mode : kModes) {
          for (const bool ftz : {false, true}) {
            sf::Env ref_env(mode);
            ref_env.set_flush_to_zero(ftz);
            const sf::Float32 want = fpq::softfloat::detail::round_pack<32>(
                sign != 0, e, ((frac | (std::uint64_t{1} << 52)) << 11),
                false, ref_env);
            unsigned fl = 0;
            const std::uint32_t got = impl::fold32_tiny(rb, mode, ftz, fl);
            ASSERT_EQ(got, want.bits)
                << std::hex << "v bits " << rb << " mode "
                << static_cast<int>(mode) << " ftz " << ftz;
            ASSERT_EQ(fl, ref_env.flags())
                << std::hex << "v bits " << rb << " mode "
                << static_cast<int>(mode) << " ftz " << ftz;
          }
        }
      }
    }
  }
}

// narrow_from_double_n<32>, the tape engine's quiet kVar narrowing,
// against its kScalar form (per-lane convert<32> under a quiet Env):
// random doubles of every class including binary64 subnormals, widened
// lattice values with their discarded bits perturbed to straddle every
// tie, every FTZ/DAZ setting, read as one column of a two-column table.
TEST(Fast32Primitives, NarrowFromDoubleMatchesConvert) {
  constexpr std::size_t kN = std::size_t{1} << 16;
  const auto seeds = lattice32(kN / 4, 0xC0DE'000B);
  fpq::parallel::sweep_detail::Sm64 g(0xC0DE'000C);
  std::vector<double> table;  // column 0 is narrowed, column 1 is noise
  const auto push = [&](std::uint64_t bits) {
    table.push_back(std::bit_cast<double>(bits));
    table.push_back(std::bit_cast<double>(g.next()));
  };
  sf::Env quiet;
  for (const sf::Float32 s : seeds) {
    const std::uint64_t w = sf::convert<64>(s, quiet).bits;
    push(w);
    push(w | (std::uint64_t{1} << 28));
    push(w + 1);
    push(w == 0 ? g.next() : w - 1);
  }
  for (std::size_t k = 0; table.size() < 2 * kN; ++k) {
    const std::uint64_t r = g.next();
    push(k % 8 == 0 ? (r >> 12) | (r << 63) : r);  // 1 in 8: subnormal
  }
  for (const sf::Rounding mode : kModes) {
    for (int ebits = 0; ebits < 4; ++ebits) {
      const EnvCfg cfg{mode, (ebits & 1) != 0, (ebits & 2) != 0};
      expect_parity<sf::Float32>(
          "narrow_from_double32", kN, cfg,
          [&](sf::Float32* out, unsigned*, sf::Env& env) {
            sf::narrow_from_double_n<32>(table.data(), 2, out, kN, env);
          });
    }
  }
}

// Lane-position coverage for the AVX2 binary-op kernels: every hard-lane
// class at every position of the first two 8-lane vectors, every tail
// length n = 0..17, and outputs that alias each input. The other lanes
// hold an easy operand triple, so each block mixes the vector path with
// the per-lane fallback.
namespace {

enum class BinOp32 { kAdd, kSub, kMul, kDiv, kFma };

const char* bin_op_name(BinOp32 op) {
  switch (op) {
    case BinOp32::kAdd: return "add";
    case BinOp32::kSub: return "sub";
    case BinOp32::kMul: return "mul";
    case BinOp32::kDiv: return "div";
    case BinOp32::kFma: return "fma";
  }
  return "?";
}

void run_bin_op(BinOp32 op, const sf::Float32* a, const sf::Float32* b,
                const sf::Float32* c, sf::Float32* out, unsigned* fl,
                std::size_t n, sf::Env& env) {
  switch (op) {
    case BinOp32::kAdd: sf::add_n<32>(a, b, out, fl, n, env); break;
    case BinOp32::kSub: sf::sub_n<32>(a, b, out, fl, n, env); break;
    case BinOp32::kMul: sf::mul_n<32>(a, b, out, fl, n, env); break;
    case BinOp32::kDiv: sf::div_n<32>(a, b, out, fl, n, env); break;
    case BinOp32::kFma: sf::fma_n<32>(a, b, c, out, fl, n, env); break;
  }
}

struct Triple {
  const char* what;
  std::uint32_t a, b, c;
};

constexpr std::uint32_t kOne = 0x3F80'0000u;
constexpr std::uint32_t kMinNormal = 0x0080'0000u;
constexpr std::uint32_t kMaxFinite = 0x7F7F'FFFFu;
constexpr std::uint32_t kP100 = 0x7180'0000u;   // 2^100
constexpr std::uint32_t kM100 = 0x0D80'0000u;   // 2^-100
constexpr std::uint32_t kM30 = 0x3080'0000u;    // 2^-30
constexpr std::uint32_t kP30 = 0x4E80'0000u;    // 2^30

/// Operands of every hard-lane class for `op`; the sign bit is 1u << 31.
std::vector<Triple> hard_triples(BinOp32 op) {
  const std::uint32_t neg = 0x8000'0000u;
  std::vector<Triple> t = {
      {"qNaN", 0x7FC0'0001u, 0x4010'0000u, kOne},
      {"sNaN", 0x3FC0'0000u, 0xFF80'0001u, kOne},
      {"+inf", 0x7F80'0000u, 0x4010'0000u, kOne},
      {"-inf", 0x3FC0'0000u, 0xFF80'0000u, kOne},
      {"subnormal", 0x0000'0003u, 0x4010'0000u, kOne},
      {"-subnormal", 0x3FC0'0000u, 0x807F'FFFFu, kOne},
      {"zero divisor", 0x3FC0'0000u, neg, kOne},
  };
  switch (op) {
    case BinOp32::kAdd:
      t.push_back({"exact zero", 0x3FC0'0000u, 0xBFC0'0000u, kOne});
      t.push_back({"tiny", 0x00C0'0000u, kMinNormal | neg, kOne});
      t.push_back({"overflow", kMaxFinite, kMaxFinite, kOne});
      t.push_back({"-overflow", kMaxFinite | neg, kMaxFinite | neg, kOne});
      break;
    case BinOp32::kSub:
      t.push_back({"exact zero", 0x3FC0'0000u, 0x3FC0'0000u, kOne});
      t.push_back({"tiny", 0x00C0'0000u, kMinNormal, kOne});
      t.push_back({"overflow", kMaxFinite, kMaxFinite | neg, kOne});
      t.push_back({"-overflow", kMaxFinite | neg, kMaxFinite, kOne});
      break;
    case BinOp32::kMul:
      t.push_back({"exact zero", 0, 0x4010'0000u | neg, kOne});
      t.push_back({"tiny", kM100, kM30, kOne});
      t.push_back({"overflow", kP100, kP100, kOne});
      t.push_back({"-overflow", kP100 | neg, kP100, kOne});
      break;
    case BinOp32::kDiv:
      t.push_back({"exact zero", neg, 0x4010'0000u, kOne});
      t.push_back({"tiny", kM100, kP30, kOne});
      t.push_back({"overflow", kP100, kM100, kOne});
      t.push_back({"-overflow", kP100, kM100 | neg, kOne});
      break;
    case BinOp32::kFma:
      t.push_back({"exact zero", 0x3FC0'0000u, 0x4000'0000u, 0xC040'0000u});
      t.push_back({"tiny", kM100, kM30, 0});
      t.push_back({"overflow", kP100, kP100, kOne});
      t.push_back({"-overflow", kP100 | neg, kP100, kOne | neg});
      break;
  }
  return t;
}

/// Which input the output buffer aliases: none, a, b or c.
enum class Alias { kNone, kA, kB, kC };

}  // namespace

TEST(Fast32LanePositions, BinaryOpsHardClassAtEveryPositionAndTail) {
  constexpr std::size_t kMaxN = 17;
  // Easy lanes: 1.5 op 2.25 (op 0.75) is normal and inexact-free or
  // inexact in every op, never tiny, never overflowing.
  const Triple easy{"easy", 0x3FC0'0000u, 0x4010'0000u, 0x3F40'0000u};
  for (const BinOp32 op : {BinOp32::kAdd, BinOp32::kSub, BinOp32::kMul,
                           BinOp32::kDiv, BinOp32::kFma}) {
    const std::vector<Alias> aliases =
        op == BinOp32::kFma
            ? std::vector<Alias>{Alias::kNone, Alias::kA, Alias::kB, Alias::kC}
            : std::vector<Alias>{Alias::kNone, Alias::kA, Alias::kB};
    for (const Triple& hard : hard_triples(op)) {
      for (const sf::Rounding mode : kModes) {
        for (const bool flush : {false, true}) {
          const EnvCfg cfg{mode, flush, flush};
          for (std::size_t n = 0; n <= kMaxN; ++n) {
            for (std::size_t pos = 0; pos < std::max<std::size_t>(n, 1);
                 ++pos) {
              std::vector<sf::Float32> a(n, sf::Float32::from_bits(easy.a));
              std::vector<sf::Float32> b(n, sf::Float32::from_bits(easy.b));
              std::vector<sf::Float32> c(n, sf::Float32::from_bits(easy.c));
              if (pos < n) {
                a[pos] = sf::Float32::from_bits(hard.a);
                b[pos] = sf::Float32::from_bits(hard.b);
                c[pos] = sf::Float32::from_bits(hard.c);
              }
              for (const Alias alias : aliases) {
                SCOPED_TRACE(std::string(bin_op_name(op)) + " " + hard.what +
                             " n=" + std::to_string(n) +
                             " pos=" + std::to_string(pos) + " alias=" +
                             std::to_string(static_cast<int>(alias)));
                expect_parity<sf::Float32>(
                    bin_op_name(op), n, cfg,
                    [&](sf::Float32* out, unsigned* fl, sf::Env& env) {
                      auto xa = a;
                      auto xb = b;
                      auto xc = c;
                      sf::Float32* dst = alias == Alias::kA   ? xa.data()
                                         : alias == Alias::kB ? xb.data()
                                         : alias == Alias::kC ? xc.data()
                                                              : out;
                      run_bin_op(op, xa.data(), xb.data(), xc.data(), dst, fl,
                                 n, env);
                      if (dst != out) std::copy(dst, dst + n, out);
                    });
              }
            }
          }
        }
      }
    }
  }
}

// The same placement for the double -> binary32 operand narrowing, read
// as column 0 of a two-column table (the strided load).
TEST(Fast32LanePositions, NarrowFromDoubleHardClassAtEveryPositionAndTail) {
  constexpr std::size_t kMaxN = 17;
  struct Hard {
    const char* what;
    double v;
  };
  const Hard hards[] = {
      {"qNaN", std::bit_cast<double>(0x7FF8'0000'0000'0001ull)},
      {"sNaN", std::bit_cast<double>(0xFFF0'0000'0000'0001ull)},
      {"+inf", std::bit_cast<double>(0x7FF0'0000'0000'0000ull)},
      {"-inf", std::bit_cast<double>(0xFFF0'0000'0000'0000ull)},
      {"double subnormal", std::bit_cast<double>(0x0000'0000'0000'0003ull)},
      {"binary32 subnormal", -0x1.8p-140},
      {"just below 2^-126", std::bit_cast<double>(0x380F'FFFF'FFFF'FFFFull)},
      {"+0", 0.0},
      {"-0", -0.0},
      {"overflow", 1e300},
      {"-overflow", -0x1.ffffffp127},
      {"max finite", 0x1.fffffep127},
  };
  for (const Hard& hard : hards) {
    for (const sf::Rounding mode : kModes) {
      for (const bool flush : {false, true}) {
        const EnvCfg cfg{mode, flush, flush};
        for (std::size_t n = 0; n <= kMaxN; ++n) {
          for (std::size_t pos = 0; pos < std::max<std::size_t>(n, 1);
               ++pos) {
            std::vector<double> table(2 * n, 1.0 + 0x1p-30);
            for (std::size_t r = 0; r < n; ++r) table[2 * r + 1] = -7.0;
            if (pos < n) table[2 * pos] = hard.v;
            SCOPED_TRACE(std::string(hard.what) + " n=" + std::to_string(n) +
                         " pos=" + std::to_string(pos));
            expect_parity<sf::Float32>(
                "narrow_from_double32", n, cfg,
                [&](sf::Float32* out, unsigned*, sf::Env& env) {
                  sf::narrow_from_double_n<32>(table.data(), 2, out, n, env);
                });
          }
        }
      }
    }
  }
}
