// fpq::bigfloat — arbitrary-precision binary floating point.
//
// The paper's §V calls for exactly this: "A system that would allow code
// written using floating point to be seamlessly compiled to use arbitrary
// precision would enable developers to easily sanity check the behavior
// of their code." BigFloat is that substrate: a correctly rounded
// arbitrary-precision binary float used by fpq::shadow to re-execute
// computations at high precision next to binary64 and measure the damage.
//
// Representation: sign * M * 2^exp with M an arbitrary-precision integer
// (little-endian 64-bit words, top word nonzero). All operations round to
// the Context's precision with the Context's rounding mode, IEEE-style
// (round-to-nearest-even by default). Infinities and NaN follow IEEE
// semantics; there is no underflow (the exponent is a 64-bit integer), so
// BigFloat is a strict superset of every IEEE format's finite behavior
// away from the exponent bounds.
//
// Storage: M lives in a Words small buffer — up to kInlineWords words
// inside the object, one heap block beyond that, behind the same pointer.
// The inline capacity covers every intermediate of add, sub, mul, fma,
// div, sqrt, from_double and to_double at precision <= 256, so the
// shadow detector's arithmetic never touches the heap; precision 1024
// works the same way, on heap blocks.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "softfloat/env.hpp"

namespace fpq::bigfloat {

/// Precision and rounding for an operation sequence.
struct Context {
  unsigned precision = 256;  ///< significand bits kept after each op
  softfloat::Rounding rounding = softfloat::Rounding::kNearestEven;
};

/// A big integer's little-endian 64-bit words in a small buffer: data()
/// points at the inline array until a size beyond kInlineWords moves the
/// words to one heap block. Words past size() are unspecified.
class Words {
 public:
  /// The widest intermediate at precision 256 is fma's exact 512-bit
  /// product aligned up to 256 + 64 bits below the addend's top bit: 832
  /// bits, 14 words with add's carry word. 16 keeps a margin.
  static constexpr std::size_t kInlineWords = 16;

  Words() noexcept = default;
  /// `n` zero words.
  explicit Words(std::size_t n) { resize(n); }
  Words(const Words& other) { assign(other); }
  Words(Words&& other) noexcept { take(other); }
  Words& operator=(const Words& other) {
    if (this != &other) assign(other);
    return *this;
  }
  Words& operator=(Words&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~Words() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t* data() noexcept { return data_; }
  std::uint64_t& operator[](std::size_t i) noexcept { return data_[i]; }
  std::uint64_t operator[](std::size_t i) const noexcept { return data_[i]; }
  std::uint64_t back() const noexcept { return data_[size_ - 1]; }
  std::span<const std::uint64_t> span() const noexcept {
    return {data_, size_};
  }

  /// Grows with zero words or truncates.
  void resize(std::size_t n) {
    if (n > capacity_) grow(n);
    for (std::size_t i = size_; i < n; ++i) data_[i] = 0;
    size_ = n;
  }
  void push_back(std::uint64_t w) {
    if (size_ == capacity_) grow(size_ + 1);
    data_[size_++] = w;
  }
  void pop_back() noexcept { --size_; }

 private:
  bool on_heap() const noexcept { return data_ != inline_; }
  void grow(std::size_t n);  // capacity >= n, contents kept
  void assign(const Words& other);
  void take(Words& other) noexcept;
  void release() noexcept;

  std::uint64_t* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineWords;
  // Storage, not a value: only data_[0, size_) is ever read. Left
  // unfilled because zeroing it on every construction doubled the cost
  // of a one-word mul.
  std::uint64_t inline_[kInlineWords];
};

class BigFloat {
 public:
  /// +0 by default.
  BigFloat() = default;

  // -- Constructors (all exact) -----------------------------------------
  static BigFloat zero(bool negative = false);
  static BigFloat infinity(bool negative = false);
  static BigFloat nan();
  /// Exact conversion from binary64 (every double is representable).
  static BigFloat from_double(double x);
  static BigFloat from_int(std::int64_t v);
  /// ±M * 2^exp rounded to `ctx`, where `significand` holds M's
  /// little-endian words and `sticky` says a nonzero tail lies below M's
  /// lowest bit (the value is then strictly between M and M + 1 units).
  /// Rounding with a sticky tail is exact only when M has at least
  /// ctx.precision + 1 significant bits or the tail is known to lie below
  /// the round position.
  static BigFloat from_significand(bool negative,
                                   std::span<const std::uint64_t> significand,
                                   std::int64_t exp, bool sticky,
                                   const Context& ctx);

  // -- Classification -----------------------------------------------------
  bool is_zero() const noexcept { return kind_ == Kind::kZero; }
  bool is_finite() const noexcept {
    return kind_ == Kind::kZero || kind_ == Kind::kFinite;
  }
  bool is_infinity() const noexcept { return kind_ == Kind::kInf; }
  bool is_nan() const noexcept { return kind_ == Kind::kNaN; }
  bool negative() const noexcept { return negative_; }

  /// Exponent of the most significant bit: value magnitude is in
  /// [2^e, 2^(e+1)). Only meaningful for finite nonzero values.
  std::int64_t msb_exponent() const noexcept;

  /// Number of significant bits in the mantissa (0 for zero).
  std::size_t significant_bits() const noexcept;

  /// A finite nonzero value is ±significand() * 2^exponent(), with the
  /// significand odd (little-endian words, top word nonzero); both are
  /// empty/0 for zero and the special values.
  std::span<const std::uint64_t> significand() const noexcept {
    return mantissa_.span();
  }
  std::int64_t exponent() const noexcept { return exp_; }

  // -- Arithmetic (correctly rounded to ctx.precision) -------------------
  static BigFloat add(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat sub(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat mul(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat div(const BigFloat& a, const BigFloat& b,
                      const Context& ctx);
  static BigFloat sqrt(const BigFloat& a, const Context& ctx);
  static BigFloat fma(const BigFloat& a, const BigFloat& b,
                      const BigFloat& c, const Context& ctx);

  BigFloat negated() const;
  BigFloat abs() const;

  /// Three-way comparison of values: -1, 0, +1; NaN compares as +2
  /// (unordered sentinel).
  static int compare(const BigFloat& a, const BigFloat& b);

  /// Correctly rounded (to nearest even) conversion to binary64,
  /// including overflow to infinity and gradual underflow to subnormals.
  double to_double() const;

  /// Debug rendering: "-1.9999ap+12 (53 bits)" style hex-significand.
  std::string to_string() const;

 private:
  enum class Kind { kZero, kFinite, kInf, kNaN };

  // Rounds mantissa_/exp_ in place to `precision` bits.
  void round_to(unsigned precision, softfloat::Rounding rounding,
                bool extra_sticky);
  void normalize();

  Kind kind_ = Kind::kZero;
  bool negative_ = false;
  Words mantissa_;        // little-endian, back() != 0
  std::int64_t exp_ = 0;  // value = M * 2^exp_
};

/// |approx - exact| / |exact| computed in high precision and returned as a
/// double; 0 when exact==approx; +inf when exact is zero but approx is
/// not; NaN when either input is NaN.
double relative_error(double approx, const BigFloat& exact,
                      const Context& ctx);

}  // namespace fpq::bigfloat
