#include "bigfloat/bigfloat.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <new>

namespace fpq::bigfloat {

// ---- Words -----------------------------------------------------------------

void Words::grow(std::size_t n) {
  const std::size_t cap = std::max(n, 2 * capacity_);
  auto* block = static_cast<std::uint64_t*>(
      ::operator new(cap * sizeof(std::uint64_t)));
  std::memcpy(block, data_, size_ * sizeof(std::uint64_t));
  release();
  data_ = block;
  capacity_ = cap;
}

void Words::assign(const Words& other) {
  if (other.size_ > capacity_) {
    size_ = 0;
    grow(other.size_);
  }
  std::memcpy(data_, other.data_, other.size_ * sizeof(std::uint64_t));
  size_ = other.size_;
}

void Words::take(Words& other) noexcept {
  if (other.on_heap()) {
    data_ = other.data_;
    capacity_ = other.capacity_;
    other.data_ = other.inline_;
    other.capacity_ = kInlineWords;
  } else {
    data_ = inline_;
    capacity_ = kInlineWords;
    std::memcpy(inline_, other.inline_, other.size_ * sizeof(std::uint64_t));
  }
  size_ = other.size_;
  other.size_ = 0;
}

void Words::release() noexcept {
  if (on_heap()) ::operator delete(data_);
  data_ = inline_;
  capacity_ = kInlineWords;
}

namespace {

using U128 = unsigned __int128;

// ---- little-endian big-integer helpers ------------------------------------

void trim(Words& w) {
  while (!w.empty() && w.back() == 0) w.pop_back();
}

std::size_t bit_length(const Words& w) {
  if (w.empty()) return 0;
  return 64 * (w.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(w.back())));
}

bool bit_at(const Words& w, std::size_t i) {
  const std::size_t word = i / 64;
  if (word >= w.size()) return false;
  return (w[word] >> (i % 64)) & 1;
}

/// True when any bit strictly below position `i` is set.
bool any_below(const Words& w, std::size_t i) {
  const std::size_t word = i / 64;
  for (std::size_t k = 0; k < std::min(word, w.size()); ++k) {
    if (w[k] != 0) return true;
  }
  if (word < w.size() && i % 64 != 0) {
    return (w[word] & ((std::uint64_t{1} << (i % 64)) - 1)) != 0;
  }
  return false;
}

/// The 64 bits of `w` from bit `lo` upward; a negative `lo` (> -64)
/// shifts zeros in from below bit 0.
std::uint64_t bits_from(const Words& w, std::int64_t lo) {
  if (lo < 0) return w[0] << -lo;
  const auto word = static_cast<std::size_t>(lo) / 64;
  const auto rem = static_cast<unsigned>(lo % 64);
  std::uint64_t v = word < w.size() ? w[word] >> rem : 0;
  if (rem != 0 && word + 1 < w.size()) v |= w[word + 1] << (64 - rem);
  return v;
}

Words shift_left(const Words& w, std::size_t bits) {
  if (w.empty()) return {};
  const std::size_t words = bits / 64;
  const std::size_t rem = bits % 64;
  Words out(w.size() + words + (rem != 0 ? 1 : 0));
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (rem == 0) {
      out[i + words] = w[i];
    } else {
      out[i + words] |= w[i] << rem;
      out[i + words + 1] |= w[i] >> (64 - rem);
    }
  }
  trim(out);
  return out;
}

/// Logical right shift in place, discarding low bits (caller tracks
/// sticky).
void shift_right(Words& w, std::size_t bits) {
  const std::size_t words = bits / 64;
  if (words >= w.size()) {
    w.resize(0);
    return;
  }
  const std::size_t rem = bits % 64;
  const std::size_t n = w.size() - words;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = w[i + words] >> rem;
    if (rem != 0 && i + words + 1 < w.size()) {
      v |= w[i + words + 1] << (64 - rem);
    }
    w[i] = v;
  }
  w.resize(n);
  trim(w);
}

int compare_words(const Words& a, const Words& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

Words add_words(const Words& a, const Words& b) {
  Words out(std::max(a.size(), b.size()) + 1);
  U128 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    U128 sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  trim(out);
  return out;
}

/// a - b; requires a >= b.
Words sub_words(const Words& a, const Words& b) {
  Words out(a.size());
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t bi = i < b.size() ? b[i] : 0;
    const std::uint64_t ai = a[i];
    const std::uint64_t d1 = ai - bi;
    const std::uint64_t b1 = ai < bi ? 1u : 0u;
    const std::uint64_t d2 = d1 - borrow;
    const std::uint64_t b2 = d1 < borrow ? 1u : 0u;
    out[i] = d2;
    borrow = b1 | b2;
  }
  assert(borrow == 0 && "sub_words requires a >= b");
  trim(out);
  return out;
}

void add_small(Words& w, std::uint64_t v) {
  U128 carry = v;
  for (std::size_t i = 0; i < w.size() && carry != 0; ++i) {
    const U128 sum = carry + w[i];
    w[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) w.push_back(static_cast<std::uint64_t>(carry));
}

Words mul_words(const Words& a, const Words& b) {
  if (a.empty() || b.empty()) return {};
  Words out(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    U128 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      U128 cur = out[i + j] + static_cast<U128>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      const U128 cur = out[k] + carry;
      out[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  trim(out);
  return out;
}

/// q = floor(u / v) for trimmed u and trimmed nonzero v, one 64-bit
/// quotient word per step: Knuth, TAOCP vol. 2, 4.3.1, Algorithm D in
/// base 2^64. Returns whether the remainder is nonzero.
bool div_words(const Words& u, const Words& v, Words& q) {
  const std::size_t n = v.size();
  if (compare_words(u, v) < 0) {
    q = Words();
    return !u.empty();
  }
  const std::size_t m = u.size() - n;
  q = Words(m + 1);
  if (n == 1) {
    const std::uint64_t d = v[0];
    std::uint64_t rem = 0;
    for (std::size_t i = u.size(); i-- > 0;) {
      const U128 cur = (static_cast<U128>(rem) << 64) | u[i];
      q[i] = static_cast<std::uint64_t>(cur / d);
      rem = static_cast<std::uint64_t>(cur % d);
    }
    trim(q);
    return rem != 0;
  }
  // D1: scale both so the divisor's top bit is set; the quotient is
  // unchanged and the remainder is scaled (its zeroness is what we need).
  const auto s = static_cast<unsigned>(std::countl_zero(v.back()));
  const auto high = [s](std::uint64_t lower) {
    return s == 0 ? std::uint64_t{0} : lower >> (64 - s);
  };
  Words vn(n);
  for (std::size_t i = n; i-- > 0;) {
    vn[i] = (v[i] << s) | (i > 0 ? high(v[i - 1]) : 0);
  }
  Words un(u.size() + 1);
  un[u.size()] = high(u[u.size() - 1]);
  for (std::size_t i = u.size(); i-- > 0;) {
    un[i] = (u[i] << s) | (i > 0 ? high(u[i - 1]) : 0);
  }
  const std::uint64_t v1 = vn[n - 1];
  const std::uint64_t v2 = vn[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient word from the top two remainder words and
    // refine it with the third; it is then exact or one too large.
    const U128 top = (static_cast<U128>(un[j + n]) << 64) | un[j + n - 1];
    U128 qhat = top / v1;
    U128 rhat = top % v1;
    while ((qhat >> 64) != 0 ||
           qhat * v2 > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += v1;
      if ((rhat >> 64) != 0) break;
    }
    // D4: subtract qhat * vn from the window un[j .. j+n].
    std::uint64_t mul_carry = 0;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const U128 p = qhat * vn[i] + mul_carry;
      mul_carry = static_cast<std::uint64_t>(p >> 64);
      const auto lo = static_cast<std::uint64_t>(p);
      const std::uint64_t t = un[i + j] - lo;
      const std::uint64_t b1 = un[i + j] < lo ? 1u : 0u;
      un[i + j] = t - borrow;
      borrow = b1 | (t < borrow ? 1u : 0u);
    }
    const U128 owed = static_cast<U128>(mul_carry) + borrow;
    const bool overshot = un[j + n] < owed;
    un[j + n] = static_cast<std::uint64_t>(un[j + n] - owed);
    // D6: the estimate was one too large; add the divisor back.
    if (overshot) {
      --qhat;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const U128 sum = static_cast<U128>(un[i + j]) + vn[i] + carry;
        un[i + j] = static_cast<std::uint64_t>(sum);
        carry = static_cast<std::uint64_t>(sum >> 64);
      }
      un[j + n] += carry;
    }
    q[j] = static_cast<std::uint64_t>(qhat);
  }
  trim(q);
  for (std::size_t i = 0; i < n; ++i) {
    if (un[i] != 0) return true;
  }
  return false;
}

/// floor(sqrt(n)) for nonzero n by Newton's iteration on words: from any
/// start at or above the root, x <- (x + n / x) / 2 decreases strictly
/// until it reaches the root. The start comes from a binary64 root of
/// n's top bits, so each of the few iterations doubles ~32 good bits.
Words isqrt(const Words& n) {
  const std::size_t len = bit_length(n);
  if (len == 0) return {};
  // An even shift leaving at most 64 bits: n < (t + 1) * 2^shift.
  const std::size_t shift = len > 64 ? (len - 64 + 1) & ~std::size_t{1} : 0;
  Words top = n;
  shift_right(top, shift);
  const double t = static_cast<double>(top[0]);
  // Margins absorb the conversion and sqrt rounding: start >= sqrt(t + 1).
  const double start = std::sqrt(t + 1.0) * (1.0 + 0x1p-40) + 1.0;
  Words x(1);
  x[0] = static_cast<std::uint64_t>(start);
  x = shift_left(x, shift / 2);
  Words q;
  for (;;) {
    div_words(n, x, q);
    Words y = add_words(x, q);
    shift_right(y, 1);
    if (compare_words(y, x) >= 0) return x;
    x = std::move(y);
  }
}

}  // namespace

// ---- construction ----------------------------------------------------------

BigFloat BigFloat::zero(bool negative) {
  BigFloat f;
  f.kind_ = Kind::kZero;
  f.negative_ = negative;
  return f;
}

BigFloat BigFloat::infinity(bool negative) {
  BigFloat f;
  f.kind_ = Kind::kInf;
  f.negative_ = negative;
  return f;
}

BigFloat BigFloat::nan() {
  BigFloat f;
  f.kind_ = Kind::kNaN;
  return f;
}

BigFloat BigFloat::from_double(double x) {
  if (std::isnan(x)) return nan();
  if (std::isinf(x)) return infinity(std::signbit(x));
  if (x == 0.0) return zero(std::signbit(x));
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased = static_cast<std::int64_t>((bits >> 52) & 0x7FF);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  BigFloat f;
  f.kind_ = Kind::kFinite;
  f.negative_ = (bits >> 63) != 0;
  // Normal: (2^52 + frac) * 2^(biased - 1075); subnormal: frac * 2^-1074.
  f.mantissa_.push_back(biased == 0 ? frac : frac | (std::uint64_t{1} << 52));
  f.exp_ = (biased == 0 ? 1 : biased) - 1075;
  f.normalize();
  return f;
}

BigFloat BigFloat::from_int(std::int64_t v) {
  if (v == 0) return zero(false);
  BigFloat f;
  f.kind_ = Kind::kFinite;
  f.negative_ = v < 0;
  const std::uint64_t mag = f.negative_ ? 0 - static_cast<std::uint64_t>(v)
                                        : static_cast<std::uint64_t>(v);
  f.mantissa_.push_back(mag);
  f.exp_ = 0;
  f.normalize();
  return f;
}

BigFloat BigFloat::from_significand(bool negative,
                                    std::span<const std::uint64_t> significand,
                                    std::int64_t exp, bool sticky,
                                    const Context& ctx) {
  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = negative;
  r.mantissa_.resize(significand.size());
  std::copy(significand.begin(), significand.end(), r.mantissa_.data());
  r.exp_ = exp;
  r.normalize();
  if (r.is_zero()) return zero(negative);
  r.round_to(ctx.precision, ctx.rounding, sticky);
  return r;
}

void BigFloat::normalize() {
  trim(mantissa_);
  if (mantissa_.empty()) {
    kind_ = Kind::kZero;
    exp_ = 0;
    return;
  }
  // Strip trailing zero bits into the exponent (canonical form keeps the
  // mantissa odd — makes equality and bit counting cheap).
  std::size_t tz = 0;
  for (std::size_t i = 0; i < mantissa_.size(); ++i) {
    if (mantissa_[i] == 0) {
      tz += 64;
    } else {
      tz += static_cast<std::size_t>(std::countr_zero(mantissa_[i]));
      break;
    }
  }
  if (tz > 0) {
    shift_right(mantissa_, tz);
    exp_ += static_cast<std::int64_t>(tz);
  }
}

std::int64_t BigFloat::msb_exponent() const noexcept {
  if (kind_ != Kind::kFinite) return 0;
  return exp_ + static_cast<std::int64_t>(bit_length(mantissa_)) - 1;
}

std::size_t BigFloat::significant_bits() const noexcept {
  if (kind_ != Kind::kFinite) return 0;
  return bit_length(mantissa_);
}

void BigFloat::round_to(unsigned precision, softfloat::Rounding rounding,
                        bool extra_sticky) {
  if (kind_ != Kind::kFinite) return;
  const std::size_t len = bit_length(mantissa_);
  if (len <= precision) {
    if (extra_sticky) {
      // Dropped tail below the kept bits: only away-from-zero directed
      // modes care, and the increment must land at the precision'th bit
      // (one ulp at the target precision), so pad first.
      const bool up =
          (rounding == softfloat::Rounding::kUp && !negative_) ||
          (rounding == softfloat::Rounding::kDown && negative_);
      if (up) {
        const std::size_t pad = precision - len;
        mantissa_ = shift_left(mantissa_, pad);
        exp_ -= static_cast<std::int64_t>(pad);
        add_small(mantissa_, 1);
        normalize();
      }
    }
    return;
  }
  const std::size_t drop = len - precision;
  const bool round_bit = bit_at(mantissa_, drop - 1);
  const bool sticky = extra_sticky || any_below(mantissa_, drop - 1);
  shift_right(mantissa_, drop);
  const bool lsb = !mantissa_.empty() && (mantissa_[0] & 1);
  bool increment = false;
  switch (rounding) {
    case softfloat::Rounding::kNearestEven:
      increment = round_bit && (sticky || lsb);
      break;
    case softfloat::Rounding::kNearestAway:
      increment = round_bit;
      break;
    case softfloat::Rounding::kTowardZero:
      increment = false;
      break;
    case softfloat::Rounding::kUp:
      increment = !negative_ && (round_bit || sticky);
      break;
    case softfloat::Rounding::kDown:
      increment = negative_ && (round_bit || sticky);
      break;
  }
  if (increment) add_small(mantissa_, 1);
  exp_ += static_cast<std::int64_t>(drop);
  normalize();
}

// ---- arithmetic ------------------------------------------------------------

namespace {

// Magnitude comparison of finite nonzero BigFloats via (msb exponent,
// mantissa words aligned at the top bit).
int compare_magnitude(std::int64_t ea, const Words& ma, std::int64_t eb,
                      const Words& mb) {
  if (ea != eb) return ea < eb ? -1 : 1;
  const auto la = static_cast<std::int64_t>(bit_length(ma));
  const auto lb = static_cast<std::int64_t>(bit_length(mb));
  for (std::int64_t top = 0; top < std::max(la, lb); top += 64) {
    const std::uint64_t wa = top < la ? bits_from(ma, la - top - 64) : 0;
    const std::uint64_t wb = top < lb ? bits_from(mb, lb - top - 64) : 0;
    if (wa != wb) return wa < wb ? -1 : 1;
  }
  return 0;
}

}  // namespace

BigFloat BigFloat::add(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  if (a.is_infinity() || b.is_infinity()) {
    if (a.is_infinity() && b.is_infinity()) {
      if (a.negative_ != b.negative_) return nan();  // inf - inf
      return a;
    }
    return a.is_infinity() ? a : b;
  }
  if (a.is_zero() && b.is_zero()) {
    if (a.negative_ == b.negative_) return a;
    return zero(ctx.rounding == softfloat::Rounding::kDown);
  }
  if (a.is_zero()) {
    BigFloat r = b;
    r.round_to(ctx.precision, ctx.rounding, false);
    return r;
  }
  if (b.is_zero()) {
    BigFloat r = a;
    r.round_to(ctx.precision, ctx.rounding, false);
    return r;
  }

  // Alignment guard: beyond precision + 64 bits of exponent gap the
  // smaller operand is pure sticky.
  const std::int64_t msb_a = a.msb_exponent();
  const std::int64_t msb_b = b.msb_exponent();
  const bool a_bigger_mag =
      compare_magnitude(msb_a, a.mantissa_, msb_b, b.mantissa_) >= 0;
  const BigFloat& big = a_bigger_mag ? a : b;
  const BigFloat& small = a_bigger_mag ? b : a;
  const std::int64_t gap = big.msb_exponent() - small.msb_exponent();
  const auto limit = static_cast<std::int64_t>(ctx.precision) + 64;

  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = big.negative_;

  if (gap > limit) {
    // small contributes only sticky (and, for subtraction, a borrow of
    // less than one ulp of the guard band).
    r.mantissa_ = shift_left(big.mantissa_, 4);  // 4 guard bits
    r.exp_ = big.exp_ - 4;
    if (a.negative_ != b.negative_) {
      Words one(1);
      one[0] = 1;
      r.mantissa_ = sub_words(r.mantissa_, one);
    }
    r.round_to(ctx.precision, ctx.rounding, true);
    return r;
  }

  // Exact alignment: bring both mantissas to the smaller exp_ scale.
  const std::int64_t common_exp = std::min(a.exp_, b.exp_);
  const Words ma =
      shift_left(a.mantissa_, static_cast<std::size_t>(a.exp_ - common_exp));
  const Words mb =
      shift_left(b.mantissa_, static_cast<std::size_t>(b.exp_ - common_exp));
  if (a.negative_ == b.negative_) {
    r.mantissa_ = add_words(ma, mb);
    r.negative_ = a.negative_;
  } else {
    const int cmp = compare_words(ma, mb);
    if (cmp == 0) {
      return zero(ctx.rounding == softfloat::Rounding::kDown);
    }
    if (cmp > 0) {
      r.mantissa_ = sub_words(ma, mb);
      r.negative_ = a.negative_;
    } else {
      r.mantissa_ = sub_words(mb, ma);
      r.negative_ = b.negative_;
    }
  }
  r.exp_ = common_exp;
  r.normalize();
  if (r.mantissa_.empty()) {
    return zero(ctx.rounding == softfloat::Rounding::kDown);
  }
  r.round_to(ctx.precision, ctx.rounding, false);
  return r;
}

BigFloat BigFloat::sub(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  return add(a, b.negated(), ctx);
}

BigFloat BigFloat::mul(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool sign = a.negative_ != b.negative_;
  if (a.is_infinity() || b.is_infinity()) {
    if (a.is_zero() || b.is_zero()) return nan();  // 0 * inf
    return infinity(sign);
  }
  if (a.is_zero() || b.is_zero()) return zero(sign);
  BigFloat r;
  r.kind_ = Kind::kFinite;
  r.negative_ = sign;
  r.mantissa_ = mul_words(a.mantissa_, b.mantissa_);
  r.exp_ = a.exp_ + b.exp_;
  r.normalize();
  r.round_to(ctx.precision, ctx.rounding, false);
  return r;
}

BigFloat BigFloat::div(const BigFloat& a, const BigFloat& b,
                       const Context& ctx) {
  if (a.is_nan() || b.is_nan()) return nan();
  const bool sign = a.negative_ != b.negative_;
  if (a.is_infinity()) {
    if (b.is_infinity()) return nan();
    return infinity(sign);
  }
  if (b.is_infinity()) return zero(sign);
  if (b.is_zero()) {
    if (a.is_zero()) return nan();
    return infinity(sign);
  }
  if (a.is_zero()) return zero(sign);

  // floor((A << s) / B) with s chosen so the quotient has at least
  // precision + 2 bits; a nonzero remainder is the sticky tail.
  const auto want = static_cast<std::int64_t>(ctx.precision) + 2;
  const auto len_a = static_cast<std::int64_t>(bit_length(a.mantissa_));
  const auto len_b = static_cast<std::int64_t>(bit_length(b.mantissa_));
  const std::int64_t pre_shift =
      std::max<std::int64_t>(0, len_b + want - len_a);
  Words quotient;
  const bool sticky =
      div_words(shift_left(a.mantissa_, static_cast<std::size_t>(pre_shift)),
                b.mantissa_, quotient);
  return from_significand(sign, quotient.span(),
                          a.exp_ - b.exp_ - pre_shift, sticky, ctx);
}

BigFloat BigFloat::sqrt(const BigFloat& a, const Context& ctx) {
  if (a.is_nan()) return nan();
  if (a.is_zero()) return a;
  if (a.negative_) return nan();
  if (a.is_infinity()) return a;

  // floor(sqrt(M << s)) with s even-adjusting the exponent and leaving
  // the radicand at least 2 * (precision + 2) bits, so the root has at
  // least precision + 2; a nonzero remainder is the sticky tail.
  const auto want = static_cast<std::int64_t>(ctx.precision) + 2;
  std::int64_t scale = std::max<std::int64_t>(
      0, 2 * want - static_cast<std::int64_t>(bit_length(a.mantissa_)));
  if ((a.exp_ - scale) % 2 != 0) ++scale;
  const Words radicand =
      shift_left(a.mantissa_, static_cast<std::size_t>(scale));
  const Words root = isqrt(radicand);
  const bool sticky = compare_words(mul_words(root, root), radicand) != 0;
  return from_significand(false, root.span(), (a.exp_ - scale) / 2, sticky,
                          ctx);
}

BigFloat BigFloat::fma(const BigFloat& a, const BigFloat& b,
                       const BigFloat& c, const Context& ctx) {
  // Exact product (unbounded precision), then one rounded add.
  Context exact = ctx;
  exact.precision = static_cast<unsigned>(a.significant_bits() +
                                          b.significant_bits() + 4);
  if (exact.precision < ctx.precision) exact.precision = ctx.precision;
  const BigFloat product = mul(a, b, exact);
  if (product.is_nan()) return nan();
  return add(product, c, ctx);
}

BigFloat BigFloat::negated() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.negative_ = !r.negative_;
  return r;
}

BigFloat BigFloat::abs() const {
  BigFloat r = *this;
  if (!r.is_nan()) r.negative_ = false;
  return r;
}

int BigFloat::compare(const BigFloat& a, const BigFloat& b) {
  if (a.is_nan() || b.is_nan()) return 2;
  if (a.is_zero() && b.is_zero()) return 0;
  // Sign classes (zero sorts with its sign only vs nonzero values).
  const int sa = a.is_zero() ? 0 : (a.negative_ ? -1 : 1);
  const int sb = b.is_zero() ? 0 : (b.negative_ ? -1 : 1);
  if (sa != sb) return sa < sb ? -1 : 1;
  if (sa == 0) return 0;
  const int mag = compare_magnitude(a.msb_exponent(), a.mantissa_,
                                    b.msb_exponent(), b.mantissa_);
  return sa > 0 ? mag : -mag;
}

double BigFloat::to_double() const {
  switch (kind_) {
    case Kind::kZero:
      return negative_ ? -0.0 : 0.0;
    case Kind::kInf:
      return negative_ ? -std::numeric_limits<double>::infinity()
                       : std::numeric_limits<double>::infinity();
    case Kind::kNaN:
      return std::numeric_limits<double>::quiet_NaN();
    case Kind::kFinite:
      break;
  }
  const std::int64_t msb = msb_exponent();
  if (msb > 1024) {
    return negative_ ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
  }
  // Precision available at this magnitude (53 normal; fewer when
  // subnormal; none below the subnormal range).
  std::int64_t prec = 53;
  if (msb < -1022) prec = msb + 1075;  // subnormal staircase
  if (prec <= 0) {
    // Magnitude in (0, 2^-1074): the candidates are 0 and the smallest
    // subnormal, with the midpoint at exactly 2^-1075. Strictly above the
    // midpoint rounds to the subnormal; the midpoint itself ties to even
    // (zero); below rounds to zero.
    const double tiny = 4.9406564584124654e-324;
    if (prec == 0 && significant_bits() > 1) {
      // msb == -1075 with more than one significant bit: > midpoint.
      return negative_ ? -tiny : tiny;
    }
    return negative_ ? -0.0 : 0.0;
  }
  BigFloat copy = *this;
  copy.round_to(static_cast<unsigned>(prec),
                softfloat::Rounding::kNearestEven, false);
  // Rounding may have bumped the exponent (and with it the precision
  // class); a single re-round is stable.
  const std::int64_t msb2 = copy.msb_exponent();
  if (msb2 > 1024) {
    return negative_ ? -std::numeric_limits<double>::infinity()
                     : std::numeric_limits<double>::infinity();
  }
  // Assemble: take the mantissa as (at most 53-bit) integer * 2^exp.
  assert(bit_length(copy.mantissa_) <= 53);
  const std::uint64_t mant = copy.mantissa_.empty() ? 0 : copy.mantissa_[0];
  const double mag =
      std::ldexp(static_cast<double>(mant), static_cast<int>(copy.exp_));
  return negative_ ? -mag : mag;
}

std::string BigFloat::to_string() const {
  switch (kind_) {
    case Kind::kZero:
      return negative_ ? "-0" : "+0";
    case Kind::kInf:
      return negative_ ? "-inf" : "+inf";
    case Kind::kNaN:
      return "nan";
    case Kind::kFinite:
      break;
  }
  char buf[96];
  const double approx = to_double();
  std::snprintf(buf, sizeof buf, "%.17g (%zu bits, 2^%lld scale)", approx,
                significant_bits(), static_cast<long long>(exp_));
  return buf;
}

double relative_error(double approx, const BigFloat& exact,
                      const Context& ctx) {
  if (std::isnan(approx) || exact.is_nan()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (exact.is_zero()) {
    return approx == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  if (std::isinf(approx) || exact.is_infinity()) {
    const bool same = std::isinf(approx) && exact.is_infinity() &&
                      std::signbit(approx) == exact.negative();
    return same ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const BigFloat diff =
      BigFloat::sub(BigFloat::from_double(approx), exact, ctx);
  const BigFloat rel = BigFloat::div(diff.abs(), exact.abs(), ctx);
  return rel.to_double();
}

}  // namespace fpq::bigfloat
