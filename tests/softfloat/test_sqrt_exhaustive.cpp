// Scalar softfloat::sqrt computes only the kPrecision + 3 root bits the
// format keeps (sqrt.cpp). These tests prove that shortened root loop
// exhaustively, by structure. For a normal binary32 operand the root's
// bits, its rounding and its flags depend only on the fraction and on the
// exponent's parity: the exponent only shifts the root, and sqrt never
// overflows or underflows. So every fraction at biased exponents
// {1, 2, 126, 127, 253, 254} (both parities, at both ends and in the
// middle of the range), every positive subnormal, and all 2^16 bfloat16
// encodings, each in all five rounding modes, meet every case the loop
// can. binary16 is exhausted by the sqrt16 sweep row
// (Binary16Exhaustive.SqrtExhaustiveUnderAllFiveRoundingModes).
//
// binary32 is checked against the sweep's references, ref_sqrt and
// ref_sqrt_flags. bfloat16 is checked against a binary64 root narrowed
// once, which is correctly rounded because 53 >= 2*8 + 2 (Figueroa), and
// against ref_sqrt_flags on the exactly widened operand and root.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "fpmon/hardware.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/ops.hpp"
#include "softfloat/util.hpp"

namespace sf = fpq::softfloat;
namespace sw = fpq::parallel::sweep32;
using fpq::parallel::kAllRoundings;
using fpq::mon::fenv_rounding;
using fpq::mon::ScopedFenvRounding;

namespace {

constexpr std::size_t kModes = std::size(kAllRoundings);

/// One shard's disagreements: a count and the first one, described.
struct ShardFailures {
  std::uint64_t count = 0;
  std::string first;
};

template <int kBits>
void note(ShardFailures& f, sf::Rounding mode, sf::Float<kBits> x,
          sf::Float<kBits> got, unsigned got_flags, sf::Float<kBits> want,
          unsigned want_flags) {
  if (f.count++ != 0) return;
  std::ostringstream os;
  os << "mode=" << sf::rounding_to_string(mode) << " input="
     << sf::describe(x) << " got=" << sf::describe(got)
     << " flags=" << sf::flags_to_string(got_flags)
     << " want=" << sf::describe(want)
     << " flags=" << sf::flags_to_string(want_flags);
  f.first = os.str();
}

/// Runs body(shard, failures) for every shard on a pool and returns the
/// total count, with the lowest failing shard's first description.
template <typename Body>
ShardFailures run_on_pool(std::size_t shards, const Body& body) {
  std::vector<ShardFailures> per_shard(shards);
  fpq::parallel::ThreadPool pool;
  pool.run_shards(shards, [&](std::size_t s) { body(s, per_shard[s]); });
  ShardFailures total;
  for (const ShardFailures& f : per_shard) {
    if (total.count == 0) total.first = f.first;
    total.count += f.count;
  }
  return total;
}

/// bfloat16 sqrt: ref_sqrt's special classes, and otherwise the binary64
/// root of the exact widening under the mode's direction, narrowed once.
sf::BFloat16 ref_sqrt_bf16(sf::BFloat16 a, sf::Rounding mode) {
  using B = sf::BFloat16;
  if (a.is_nan()) return a.quieted();
  if (a.is_zero()) return a;
  if (a.sign()) return B::quiet_nan();
  if (a.is_infinity()) return a;
  double wide;
  {
    const ScopedFenvRounding guard(fenv_rounding(mode));
    wide = fpq::mon::host::sqrt<double>(sf::to_native(sw::ref_widen_from_bf16(a)));
  }
  sf::Env env(mode);
  return sf::convert<sf::kBFloat16>(sf::from_native(wide), env);
}

unsigned ref_sqrt_flags_bf16(sf::BFloat16 a, sf::BFloat16 r) {
  if (a.is_nan()) return a.is_signaling_nan() ? sf::kFlagInvalid : 0u;
  return sw::ref_sqrt_flags(sw::ref_widen_from_bf16(a),
                            sw::ref_widen_from_bf16(r));
}

TEST(SqrtExhaustive, Binary32EveryFractionAtBothParitiesAndEverySubnormal) {
  // Biased exponent 0 stands for the positive subnormals.
  constexpr std::uint32_t kExponents[] = {0, 1, 2, 126, 127, 253, 254};
  constexpr std::uint32_t kChunkBits = 16;
  constexpr std::uint32_t kChunks = std::uint32_t{1} << (23 - kChunkBits);
  const std::size_t shards = std::size(kExponents) * kChunks * kModes;
  const ShardFailures failures =
      run_on_pool(shards, [&](std::size_t s, ShardFailures& f) {
        const sf::Rounding mode = kAllRoundings[s % kModes];
        const std::uint32_t chunk = (s / kModes) % kChunks;
        const std::uint32_t exponent = kExponents[s / kModes / kChunks];
        // One host direction per shard: ref_sqrt's own guard then finds
        // it already set.
        const ScopedFenvRounding guard(fenv_rounding(mode));
        const std::uint32_t first = chunk << kChunkBits;
        for (std::uint32_t frac = first; frac < first + (1u << kChunkBits);
             ++frac) {
          if (exponent == 0 && frac == 0) continue;  // +0, not subnormal
          const sf::Float32 x{(exponent << 23) | frac};
          sf::Env env(mode);
          const sf::Float32 got = sf::sqrt(x, env);
          const sf::Float32 want = sw::ref_sqrt(x, mode);
          const unsigned want_flags = sw::ref_sqrt_flags(x, want);
          if (got.bits != want.bits || env.flags() != want_flags) {
            note(f, mode, x, got, env.flags(), want, want_flags);
          }
        }
      });
  EXPECT_EQ(failures.count, 0u) << failures.first;
}

TEST(SqrtExhaustive, BFloat16EveryEncoding) {
  const ShardFailures failures =
      run_on_pool(kModes, [&](std::size_t s, ShardFailures& f) {
        const sf::Rounding mode = kAllRoundings[s];
        for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
          const sf::BFloat16 x{static_cast<std::uint16_t>(raw)};
          sf::Env env(mode);
          const sf::BFloat16 got = sf::sqrt(x, env);
          const sf::BFloat16 want = ref_sqrt_bf16(x, mode);
          const unsigned want_flags = ref_sqrt_flags_bf16(x, want);
          if (got.bits != want.bits || env.flags() != want_flags) {
            note(f, mode, x, got, env.flags(), want, want_flags);
          }
        }
      });
  EXPECT_EQ(failures.count, 0u) << failures.first;
}

}  // namespace
