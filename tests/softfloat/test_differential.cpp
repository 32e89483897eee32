// Randomized differential testing of the softfloat engine against the host
// FPU (which is IEEE 754 compliant for +, -, *, /, sqrt and fma on x86-64).
//
// For every sampled operand pair we compare the result bit pattern and the
// five sticky exception flags across all four hardware rounding modes.
// NaN results are compared as a class (payload propagation conventions are
// implementation-defined and differ between vendors).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw_ref.hpp"  // NOLINT(build/include_subdir) — test-local helper
#include "softfloat/ops.hpp"
#include "stats/prng.hpp"

namespace sf = fpq::softfloat;
namespace st = fpq::stats;
using fpq::test::run_hw;

namespace {

// Directed special values mixed into every stream.
const std::uint64_t kSpecial64[] = {
    0x0000000000000000ULL,  // +0
    0x8000000000000000ULL,  // -0
    0x3FF0000000000000ULL,  // 1.0
    0xBFF0000000000000ULL,  // -1.0
    0x7FF0000000000000ULL,  // +inf
    0xFFF0000000000000ULL,  // -inf
    0x7FF8000000000000ULL,  // qNaN
    0x7FEFFFFFFFFFFFFFULL,  // max finite
    0xFFEFFFFFFFFFFFFFULL,  // -max finite
    0x0010000000000000ULL,  // min normal
    0x0000000000000001ULL,  // min subnormal
    0x000FFFFFFFFFFFFFULL,  // max subnormal
    0x8000000000000001ULL,  // -min subnormal
    0x4340000000000000ULL,  // 2^53
    0x3CA0000000000000ULL,  // 2^-53
};

const std::uint32_t kSpecial32[] = {
    0x00000000u, 0x80000000u, 0x3F800000u, 0xBF800000u, 0x7F800000u,
    0xFF800000u, 0x7FC00000u, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x00800000u,
    0x00000001u, 0x007FFFFFu, 0x80000001u, 0x4B800000u, 0x33800000u,
};

// Operand generator: a blend of uniform random bits (hits every class),
// "realistic" normals, and the directed special list.
std::uint64_t gen_bits64(st::Xoshiro256pp& g) {
  const auto pick = st::uniform_below(g, 10);
  if (pick < 2) return kSpecial64[st::uniform_below(g, std::size(kSpecial64))];
  if (pick < 7) return g();  // uniform bit pattern
  // Moderate-exponent normal: avoids always-overflowing products.
  const std::uint64_t frac = g() & 0x000FFFFFFFFFFFFFULL;
  const std::uint64_t exp = 1023 - 40 + st::uniform_below(g, 80);
  const std::uint64_t sign = g() & 0x8000000000000000ULL;
  return sign | (exp << 52) | frac;
}

std::uint32_t gen_bits32(st::Xoshiro256pp& g) {
  const auto pick = st::uniform_below(g, 10);
  if (pick < 2) return kSpecial32[st::uniform_below(g, std::size(kSpecial32))];
  if (pick < 7) return static_cast<std::uint32_t>(g());
  const std::uint32_t frac = static_cast<std::uint32_t>(g()) & 0x007FFFFFu;
  const auto exp =
      static_cast<std::uint32_t>(127 - 20 + st::uniform_below(g, 40));
  const std::uint32_t sign = static_cast<std::uint32_t>(g()) & 0x80000000u;
  return sign | (exp << 23) | frac;
}

struct ModeParam {
  sf::Rounding soft;
  int hard;
  const char* name;
};

// gtest lists a ModeParam by its raw bytes, name pointer included, and
// gtest_discover_tests registers each ctest test under that listing cut to
// a fixed width. For the "upward" cases the cut falls inside the pointer's
// low byte, which would move whenever any string literal elsewhere in the
// binary does. Keeping the names in one 256-byte-aligned block pins that
// byte (the loader relocates by whole pages), so the registered test names
// do not depend on the rest of the build; the slots sit at the top of the
// block, which keeps the names the suite has registered so far.
struct alignas(256) ModeNameBlock {
  char unused[0xC0];
  char nearest_even[16];
  char toward_zero[16];
  char downward[16];
  char upward[16];
};
static_assert(offsetof(ModeNameBlock, upward) == 0xF0);

constexpr ModeNameBlock kModeNames{
    {}, "nearest-even", "toward-zero", "downward", "upward"};

const ModeParam kModes[] = {
    {sf::Rounding::kNearestEven, FE_TONEAREST, kModeNames.nearest_even},
    {sf::Rounding::kTowardZero, FE_TOWARDZERO, kModeNames.toward_zero},
    {sf::Rounding::kDown, FE_DOWNWARD, kModeNames.downward},
    {sf::Rounding::kUp, FE_UPWARD, kModeNames.upward},
};

class DifferentialF64 : public ::testing::TestWithParam<ModeParam> {};
class DifferentialF32 : public ::testing::TestWithParam<ModeParam> {};

constexpr int kIterations = 20000;
constexpr unsigned kStdFlags = sf::kFlagInvalid | sf::kFlagDivByZero |
                               sf::kFlagOverflow | sf::kFlagUnderflow |
                               sf::kFlagInexact;

// Compares one softfloat op against one hardware op over a random stream.
template <typename SoftOp, typename HwOp>
void check_f64(const ModeParam& mode, std::uint64_t seed, SoftOp soft_op,
               HwOp hw_op, const char* op_name) {
  st::Xoshiro256pp g(seed);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t abits = gen_bits64(g);
    const std::uint64_t bbits = gen_bits64(g);
    const sf::Float64 a{abits}, b{bbits};

    sf::Env env(mode.soft);
    const sf::Float64 soft = soft_op(a, b, env);
    const auto hw = run_hw<double>(mode.hard, [&] {
      return hw_op(std::bit_cast<double>(abits), std::bit_cast<double>(bbits));
    });
    const std::uint64_t hw_bits = std::bit_cast<std::uint64_t>(hw.value);

    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << op_name << " mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " soft=0x" << soft.bits << " hw=0x" << hw_bits;
    ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
        << op_name << " flags mode=" << mode.name << " a=0x" << std::hex
        << abits << " b=0x" << bbits << " soft="
        << sf::flags_to_string(env.flags() & kStdFlags)
        << " hw=" << sf::flags_to_string(hw.flags);
  }
}

template <typename SoftOp, typename HwOp>
void check_f32(const ModeParam& mode, std::uint64_t seed, SoftOp soft_op,
               HwOp hw_op, const char* op_name) {
  st::Xoshiro256pp g(seed);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint32_t abits = gen_bits32(g);
    const std::uint32_t bbits = gen_bits32(g);
    const sf::Float32 a{abits}, b{bbits};

    sf::Env env(mode.soft);
    const sf::Float32 soft = soft_op(a, b, env);
    const auto hw = run_hw<float>(mode.hard, [&] {
      return hw_op(std::bit_cast<float>(abits), std::bit_cast<float>(bbits));
    });
    const std::uint32_t hw_bits = std::bit_cast<std::uint32_t>(hw.value);

    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << op_name << " mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " soft=0x" << soft.bits << " hw=0x" << hw_bits;
    ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
        << op_name << " flags mode=" << mode.name << " a=0x" << std::hex
        << abits << " b=0x" << bbits;
  }
}

TEST_P(DifferentialF64, Add) {
  check_f64(
      GetParam(), 0xADD0001,
      [](auto a, auto b, sf::Env& e) { return sf::add(a, b, e); },
      fpq::test::hw_add_d, "add64");
}

TEST_P(DifferentialF64, Sub) {
  check_f64(
      GetParam(), 0x50B0002,
      [](auto a, auto b, sf::Env& e) { return sf::sub(a, b, e); },
      fpq::test::hw_sub_d, "sub64");
}

TEST_P(DifferentialF64, Mul) {
  check_f64(
      GetParam(), 0x3010003,
      [](auto a, auto b, sf::Env& e) { return sf::mul(a, b, e); },
      fpq::test::hw_mul_d, "mul64");
}

TEST_P(DifferentialF64, Div) {
  check_f64(
      GetParam(), 0xD140004,
      [](auto a, auto b, sf::Env& e) { return sf::div(a, b, e); },
      fpq::test::hw_div_d, "div64");
}

TEST_P(DifferentialF64, Sqrt) {
  const ModeParam mode = GetParam();
  st::Xoshiro256pp g(0x5095);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t abits = gen_bits64(g);
    sf::Env env(mode.soft);
    const sf::Float64 soft = sf::sqrt(sf::Float64{abits}, env);
    const auto hw = run_hw<double>(mode.hard, [&] {
      return fpq::test::hw_sqrt_d(std::bit_cast<double>(abits));
    });
    const std::uint64_t hw_bits = std::bit_cast<std::uint64_t>(hw.value);
    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << "sqrt64 mode=" << mode.name << " a=0x" << std::hex << abits
        << " soft=0x" << soft.bits << " hw=0x" << hw_bits;
    ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
        << "sqrt64 flags a=0x" << std::hex << abits;
  }
}

TEST_P(DifferentialF64, Fma) {
  const ModeParam mode = GetParam();
  st::Xoshiro256pp g(0xF3A0006);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t abits = gen_bits64(g);
    const std::uint64_t bbits = gen_bits64(g);
    const std::uint64_t cbits = gen_bits64(g);
    sf::Env env(mode.soft);
    const sf::Float64 soft =
        sf::fma(sf::Float64{abits}, sf::Float64{bbits}, sf::Float64{cbits},
                env);
    const auto hw = run_hw<double>(mode.hard, [&] {
      return fpq::test::hw_fma_d(std::bit_cast<double>(abits),
                                 std::bit_cast<double>(bbits),
                                 std::bit_cast<double>(cbits));
    });
    const std::uint64_t hw_bits = std::bit_cast<std::uint64_t>(hw.value);
    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << "fma64 mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " c=0x" << cbits << " soft=0x" << soft.bits
        << " hw=0x" << hw_bits;
    // Flag comparison: invalid-on-(0*inf+NaN) is implementation-defined in
    // C (F.10.10.1), so tolerate a mismatch in kFlagInvalid for exactly
    // that operand pattern.
    const bool zero_inf_nan =
        ((sf::Float64{abits}.is_zero() && sf::Float64{bbits}.is_infinity()) ||
         (sf::Float64{abits}.is_infinity() && sf::Float64{bbits}.is_zero())) &&
        sf::Float64{cbits}.is_nan();
    const unsigned mask = zero_inf_nan ? (kStdFlags & ~sf::kFlagInvalid)
                                       : kStdFlags;
    ASSERT_EQ(env.flags() & mask, hw.flags & mask)
        << "fma64 flags mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " c=0x" << cbits;
  }
}

TEST_P(DifferentialF32, Add) {
  check_f32(
      GetParam(), 0xADD1001,
      [](auto a, auto b, sf::Env& e) { return sf::add(a, b, e); },
      fpq::test::hw_add_f, "add32");
}

TEST_P(DifferentialF32, Sub) {
  check_f32(
      GetParam(), 0x50B1002,
      [](auto a, auto b, sf::Env& e) { return sf::sub(a, b, e); },
      fpq::test::hw_sub_f, "sub32");
}

TEST_P(DifferentialF32, Mul) {
  check_f32(
      GetParam(), 0x3011003,
      [](auto a, auto b, sf::Env& e) { return sf::mul(a, b, e); },
      fpq::test::hw_mul_f, "mul32");
}

TEST_P(DifferentialF32, Div) {
  check_f32(
      GetParam(), 0xD141004,
      [](auto a, auto b, sf::Env& e) { return sf::div(a, b, e); },
      fpq::test::hw_div_f, "div32");
}

TEST_P(DifferentialF32, Sqrt) {
  const ModeParam mode = GetParam();
  st::Xoshiro256pp g(0x5F32);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint32_t abits = gen_bits32(g);
    sf::Env env(mode.soft);
    const sf::Float32 soft = sf::sqrt(sf::Float32{abits}, env);
    const auto hw = run_hw<float>(mode.hard, [&] {
      return fpq::test::hw_sqrt_f(std::bit_cast<float>(abits));
    });
    const std::uint32_t hw_bits = std::bit_cast<std::uint32_t>(hw.value);
    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << "sqrt32 mode=" << mode.name << " a=0x" << std::hex << abits;
    ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
        << "sqrt32 flags a=0x" << std::hex << abits;
  }
}

TEST_P(DifferentialF32, Fma) {
  const ModeParam mode = GetParam();
  st::Xoshiro256pp g(0xF3A1006);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint32_t abits = gen_bits32(g);
    const std::uint32_t bbits = gen_bits32(g);
    const std::uint32_t cbits = gen_bits32(g);
    sf::Env env(mode.soft);
    const sf::Float32 soft =
        sf::fma(sf::Float32{abits}, sf::Float32{bbits}, sf::Float32{cbits},
                env);
    const auto hw = run_hw<float>(mode.hard, [&] {
      return fpq::test::hw_fma_f(std::bit_cast<float>(abits),
                                 std::bit_cast<float>(bbits),
                                 std::bit_cast<float>(cbits));
    });
    const std::uint32_t hw_bits = std::bit_cast<std::uint32_t>(hw.value);
    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << "fma32 mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " c=0x" << cbits << " soft=0x" << soft.bits
        << " hw=0x" << hw_bits;
    const bool zero_inf_nan =
        ((sf::Float32{abits}.is_zero() && sf::Float32{bbits}.is_infinity()) ||
         (sf::Float32{abits}.is_infinity() && sf::Float32{bbits}.is_zero())) &&
        sf::Float32{cbits}.is_nan();
    const unsigned mask = zero_inf_nan ? (kStdFlags & ~sf::kFlagInvalid)
                                       : kStdFlags;
    ASSERT_EQ(env.flags() & mask, hw.flags & mask)
        << "fma32 flags mode=" << mode.name << " a=0x" << std::hex << abits
        << " b=0x" << bbits << " c=0x" << cbits;
  }
}

// Subnormal-dense sweep: operands concentrated around the gradual
// underflow boundary, where tininess detection and flag semantics are the
// most delicate. Every op, every hardware rounding mode.
TEST(DifferentialSubnormal, DenseSweepAllOpsAllModes) {
  st::Xoshiro256pp g(0x5DB01);
  auto gen_tiny = [&g]() -> std::uint64_t {
    // Exponent in [0, 3]: subnormals and the first normal binades, with
    // random signs and occasional exact zeros.
    const std::uint64_t frac = g() & 0x000FFFFFFFFFFFFFULL;
    const std::uint64_t exp = st::uniform_below(g, 4);
    const std::uint64_t sign = g() & 0x8000000000000000ULL;
    if ((g() & 0xFF) == 0) return sign;  // ±0
    return sign | (exp << 52) | frac;
  };
  for (const ModeParam& mode : kModes) {
    for (int i = 0; i < 8000; ++i) {
      const std::uint64_t abits = gen_tiny();
      const std::uint64_t bbits = gen_tiny();
      struct Case {
        const char* name;
        sf::Float64 (*soft)(sf::Float64, sf::Float64, sf::Env&);
        double (*hard)(double, double);
      };
      static const Case kCases[] = {
          {"add", [](sf::Float64 a, sf::Float64 b,
                     sf::Env& e) { return sf::add(a, b, e); },
           fpq::test::hw_add_d},
          {"sub", [](sf::Float64 a, sf::Float64 b,
                     sf::Env& e) { return sf::sub(a, b, e); },
           fpq::test::hw_sub_d},
          {"mul", [](sf::Float64 a, sf::Float64 b,
                     sf::Env& e) { return sf::mul(a, b, e); },
           fpq::test::hw_mul_d},
          {"div", [](sf::Float64 a, sf::Float64 b,
                     sf::Env& e) { return sf::div(a, b, e); },
           fpq::test::hw_div_d},
      };
      for (const Case& c : kCases) {
        sf::Env env(mode.soft);
        const sf::Float64 soft = c.soft(sf::Float64{abits},
                                        sf::Float64{bbits}, env);
        const auto hw = run_hw<double>(mode.hard, [&] {
          return c.hard(std::bit_cast<double>(abits),
                        std::bit_cast<double>(bbits));
        });
        const std::uint64_t hw_bits = std::bit_cast<std::uint64_t>(hw.value);
        const bool both_nan = soft.is_nan() && std::isnan(hw.value);
        ASSERT_TRUE(both_nan || soft.bits == hw_bits)
            << c.name << " mode=" << mode.name << " a=0x" << std::hex
            << abits << " b=0x" << bbits;
        ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
            << c.name << " flags mode=" << mode.name << " a=0x" << std::hex
            << abits << " b=0x" << bbits << " soft="
            << sf::flags_to_string(env.flags() & kStdFlags)
            << " hw=" << sf::flags_to_string(hw.flags);
      }
    }
  }
}

TEST(DifferentialConvert, NarrowDoubleToFloatMatchesHardware) {
  st::Xoshiro256pp g(0xC0471);
  for (const ModeParam& mode : kModes) {
    for (int i = 0; i < kIterations; ++i) {
      const std::uint64_t abits = gen_bits64(g);
      sf::Env env(mode.soft);
      const sf::Float32 soft = sf::convert<32>(sf::Float64{abits}, env);
      const auto hw = run_hw<float>(mode.hard, [&] {
        volatile double a = std::bit_cast<double>(abits);
        volatile float r = static_cast<float>(a);
        return r;
      });
      const std::uint32_t hw_bits = std::bit_cast<std::uint32_t>(hw.value);
      const bool both_nan = soft.is_nan() && std::isnan(hw.value);
      ASSERT_TRUE(both_nan || soft.bits == hw_bits)
          << "cvt64to32 mode=" << mode.name << " a=0x" << std::hex << abits
          << " soft=0x" << soft.bits << " hw=0x" << hw_bits;
      ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
          << "cvt64to32 flags mode=" << mode.name << " a=0x" << std::hex
          << abits;
    }
  }
}

TEST(DifferentialConvert, WidenFloatToDoubleMatchesHardware) {
  st::Xoshiro256pp g(0xC0472);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint32_t abits = gen_bits32(g);
    sf::Env env;
    const sf::Float64 soft = sf::convert<64>(sf::Float32{abits}, env);
    const auto hw = run_hw<double>(FE_TONEAREST, [&] {
      volatile float a = std::bit_cast<float>(abits);
      volatile double r = static_cast<double>(a);
      return r;
    });
    const std::uint64_t hw_bits = std::bit_cast<std::uint64_t>(hw.value);
    const bool both_nan = soft.is_nan() && std::isnan(hw.value);
    ASSERT_TRUE(both_nan || soft.bits == hw_bits)
        << "cvt32to64 a=0x" << std::hex << abits;
    // Widening raises no flags except invalid for signaling NaN inputs.
    ASSERT_EQ(env.flags() & kStdFlags, hw.flags)
        << "cvt32to64 flags a=0x" << std::hex << abits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRoundingModes, DifferentialF64,
                         ::testing::ValuesIn(kModes),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

INSTANTIATE_TEST_SUITE_P(AllRoundingModes, DifferentialF32,
                         ::testing::ValuesIn(kModes),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
