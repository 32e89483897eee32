// fpq::softfloat — the Float<kBits> value type: bit-exact storage plus
// classification, construction, and native interop.
//
// Float is a trivially copyable wrapper around the raw encoding. All
// arithmetic lives in ops.hpp; this header is the pure "what do these bits
// mean" layer.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "softfloat/format.hpp"

namespace fpq::softfloat {

/// fpclassify-style value classes.
enum class ValueClass {
  kZero,
  kSubnormal,
  kNormal,
  kInfinite,
  kQuietNaN,
  kSignalingNaN,
};

template <int kBits>
struct Float {
  using Constants = FormatConstants<kBits>;
  using Storage = typename Constants::Storage;

  Storage bits = 0;

  constexpr Float() = default;
  constexpr explicit Float(Storage raw) : bits(raw) {}

  static constexpr Float from_bits(Storage raw) { return Float{raw}; }

  // -- Named constants ----------------------------------------------------
  static constexpr Float zero(bool negative = false) {
    return Float{negative ? Constants::kSignMask : Storage{0}};
  }
  static constexpr Float infinity(bool negative = false) {
    return Float{negative ? Constants::kNegativeInfinityBits
                          : Constants::kPositiveInfinityBits};
  }
  static constexpr Float quiet_nan() {
    return Float{Constants::kDefaultNaNBits};
  }
  static constexpr Float signaling_nan() {
    // Smallest nonzero payload with the quiet bit clear.
    return Float{static_cast<Storage>(Constants::kExpMask | Storage{1})};
  }
  static constexpr Float max_finite(bool negative = false) {
    return Float{static_cast<Storage>(
        (negative ? Constants::kSignMask : Storage{0}) |
        Constants::kMaxFiniteBits)};
  }
  static constexpr Float min_normal(bool negative = false) {
    return Float{static_cast<Storage>(
        (negative ? Constants::kSignMask : Storage{0}) |
        Constants::kMinNormalBits)};
  }
  static constexpr Float min_subnormal(bool negative = false) {
    return Float{static_cast<Storage>(
        (negative ? Constants::kSignMask : Storage{0}) |
        Constants::kMinSubnormalBits)};
  }
  static constexpr Float one(bool negative = false) {
    return Float{static_cast<Storage>(
        (negative ? Constants::kSignMask : Storage{0}) |
        (static_cast<Storage>(Constants::kBias) << Constants::kSigBits))};
  }

  // -- Field access --------------------------------------------------------
  constexpr bool sign() const { return (bits & Constants::kSignMask) != 0; }
  constexpr int biased_exponent() const {
    return static_cast<int>((bits & Constants::kExpMask) >>
                            Constants::kSigBits);
  }
  constexpr Storage fraction() const {
    return static_cast<Storage>(bits & Constants::kFracMask);
  }

  // -- Classification ------------------------------------------------------
  constexpr bool is_zero() const {
    return (bits & ~Constants::kSignMask) == 0;
  }
  constexpr bool is_subnormal() const {
    return biased_exponent() == 0 && fraction() != 0;
  }
  constexpr bool is_normal() const {
    const int e = biased_exponent();
    return e != 0 && e != Constants::kExpInfNan;
  }
  constexpr bool is_finite() const {
    return biased_exponent() != Constants::kExpInfNan;
  }
  constexpr bool is_infinity() const {
    return biased_exponent() == Constants::kExpInfNan && fraction() == 0;
  }
  /// The magnitudes above infinity's are exactly the NaNs, so this is one
  /// compare with no branch.
  constexpr bool is_nan() const {
    return static_cast<Storage>(bits & ~Constants::kSignMask) >
           Constants::kPositiveInfinityBits;
  }
  constexpr bool is_signaling_nan() const {
    return is_nan() && (bits & Constants::kQuietBit) == 0;
  }
  constexpr bool is_quiet_nan() const {
    return is_nan() && (bits & Constants::kQuietBit) != 0;
  }

  constexpr ValueClass classify() const {
    if (is_zero()) return ValueClass::kZero;
    if (is_subnormal()) return ValueClass::kSubnormal;
    if (is_normal()) return ValueClass::kNormal;
    if (is_infinity()) return ValueClass::kInfinite;
    return is_signaling_nan() ? ValueClass::kSignalingNaN
                              : ValueClass::kQuietNaN;
  }

  // -- Sign-bit operations (never raise flags, per the standard) -----------
  constexpr Float negated() const {
    return Float{static_cast<Storage>(bits ^ Constants::kSignMask)};
  }
  constexpr Float abs() const {
    return Float{static_cast<Storage>(bits & ~Constants::kSignMask)};
  }
  constexpr Float with_sign(bool negative) const {
    return Float{static_cast<Storage>(
        (bits & ~Constants::kSignMask) |
        (negative ? Constants::kSignMask : Storage{0}))};
  }

  /// Quiets a signaling NaN (sets the quiet bit); identity for other values.
  constexpr Float quieted() const {
    if (!is_nan()) return *this;
    return Float{static_cast<Storage>(bits | Constants::kQuietBit)};
  }

  /// Bit equality — NOT IEEE equality (that is compare.hpp's job; the
  /// difference between the two is quiz question "Identity").
  friend constexpr bool operator==(Float a, Float b) { return a.bits == b.bits; }
};

using Float16 = Float<16>;
using Float32 = Float<32>;
using Float64 = Float<64>;
using BFloat16 = Float<kBFloat16>;

/// Display name of a format ("binary32", "bfloat16", ...).
template <int kBits>
constexpr const char* format_name() {
  if constexpr (kBits == kBFloat16) {
    return "bfloat16";
  } else if constexpr (kBits == 16) {
    return "binary16";
  } else if constexpr (kBits == 32) {
    return "binary32";
  } else {
    return "binary64";
  }
}

// -- Native interop (bit-level; exact by construction) ----------------------
inline Float32 from_native(float x) {
  return Float32{std::bit_cast<std::uint32_t>(x)};
}
inline Float64 from_native(double x) {
  return Float64{std::bit_cast<std::uint64_t>(x)};
}
inline float to_native(Float32 x) { return std::bit_cast<float>(x.bits); }
inline double to_native(Float64 x) { return std::bit_cast<double>(x.bits); }

/// Hex + decoded rendering for diagnostics, e.g.
/// "0x3C00 (binary16 +1.0 * 2^0, normal)".
template <int kBits>
std::string describe(Float<kBits> x);

extern template std::string describe<16>(Float16);
extern template std::string describe<32>(Float32);
extern template std::string describe<64>(Float64);
extern template std::string describe<kBFloat16>(BFloat16);

}  // namespace fpq::softfloat
