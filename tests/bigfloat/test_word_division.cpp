// Word-level division and square root against the bit-serial reference.
//
// BigFloat::div runs Knuth's Algorithm D and BigFloat::sqrt a Newton
// integer root, one 64-bit word per step. The reference below is the
// straightforward bit-at-a-time long division and digit-by-digit root
// they replaced, over plain std::vector words; both sides finish through
// BigFloat::from_significand, so any disagreement is in the quotient,
// the root or the sticky bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "bigfloat/bigfloat.hpp"
#include "stats/prng.hpp"

namespace bf = fpq::bigfloat;
namespace st = fpq::stats;
using fpq::softfloat::Rounding;

namespace {

// ---- the bit-serial reference ----------------------------------------------

using RefWords = std::vector<std::uint64_t>;

void trim(RefWords& w) {
  while (!w.empty() && w.back() == 0) w.pop_back();
}

std::size_t bit_length(const RefWords& w) {
  if (w.empty()) return 0;
  return 64 * (w.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(w.back())));
}

RefWords shift_left(const RefWords& w, std::size_t bits) {
  if (w.empty() || bits == 0) return w;
  const std::size_t words = bits / 64;
  const std::size_t rem = bits % 64;
  RefWords out(w.size() + words + 1, 0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    out[i + words] |= rem == 0 ? w[i] : (w[i] << rem);
    if (rem != 0) out[i + words + 1] |= w[i] >> (64 - rem);
  }
  trim(out);
  return out;
}

int compare_words(const RefWords& a, const RefWords& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

RefWords add_words(const RefWords& a, const RefWords& b) {
  RefWords out(std::max(a.size(), b.size()) + 1, 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    unsigned __int128 sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  trim(out);
  return out;
}

/// a - b; requires a >= b.
RefWords sub_words(const RefWords& a, const RefWords& b) {
  RefWords out(a.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t bi = i < b.size() ? b[i] : 0;
    const std::uint64_t d1 = a[i] - bi;
    const std::uint64_t b1 = a[i] < bi ? 1u : 0u;
    out[i] = d1 - borrow;
    borrow = b1 | (d1 < borrow ? 1u : 0u);
  }
  trim(out);
  return out;
}

RefWords words_of(const bf::BigFloat& x) {
  return RefWords(x.significand().begin(), x.significand().end());
}

/// Shift-and-subtract long division, one quotient bit per step.
bf::BigFloat reference_div(const bf::BigFloat& a, const bf::BigFloat& b,
                           const bf::Context& ctx) {
  if (a.is_nan() || b.is_nan()) return bf::BigFloat::nan();
  const bool sign = a.negative() != b.negative();
  if (a.is_infinity()) {
    return b.is_infinity() ? bf::BigFloat::nan()
                           : bf::BigFloat::infinity(sign);
  }
  if (b.is_infinity()) return bf::BigFloat::zero(sign);
  if (b.is_zero()) {
    return a.is_zero() ? bf::BigFloat::nan() : bf::BigFloat::infinity(sign);
  }
  if (a.is_zero()) return bf::BigFloat::zero(sign);

  const auto want = static_cast<std::int64_t>(ctx.precision) + 2;
  const RefWords divisor = words_of(b);
  const auto len_a = static_cast<std::int64_t>(bit_length(words_of(a)));
  const auto len_b = static_cast<std::int64_t>(bit_length(divisor));
  const std::int64_t pre_shift =
      std::max<std::int64_t>(0, len_b + want - len_a);
  RefWords rem =
      shift_left(words_of(a), static_cast<std::size_t>(pre_shift));
  std::int64_t qbit = static_cast<std::int64_t>(bit_length(rem)) - len_b;
  RefWords quotient;
  while (qbit >= 0) {
    const RefWords shifted =
        shift_left(divisor, static_cast<std::size_t>(qbit));
    if (compare_words(rem, shifted) >= 0) {
      rem = sub_words(rem, shifted);
      const auto word = static_cast<std::size_t>(qbit) / 64;
      if (quotient.size() <= word) quotient.resize(word + 1, 0);
      quotient[word] |= std::uint64_t{1}
                        << (static_cast<std::size_t>(qbit) % 64);
    }
    --qbit;
    if (rem.empty()) break;
  }
  trim(quotient);
  return bf::BigFloat::from_significand(
      sign, quotient, a.exponent() - b.exponent() - pre_shift, !rem.empty(),
      ctx);
}

/// Digit-by-digit square root, one root bit per step.
bf::BigFloat reference_sqrt(const bf::BigFloat& a, const bf::Context& ctx) {
  if (a.is_nan()) return bf::BigFloat::nan();
  if (a.is_zero()) return a;
  if (a.negative()) return bf::BigFloat::nan();
  if (a.is_infinity()) return a;

  const auto want = static_cast<std::int64_t>(ctx.precision) + 2;
  std::int64_t e = a.exponent();
  RefWords radicand = words_of(a);
  std::int64_t scale =
      2 * want - static_cast<std::int64_t>(bit_length(radicand));
  if (scale < 0) scale = 0;
  if ((e - scale) % 2 != 0) ++scale;
  radicand = shift_left(radicand, static_cast<std::size_t>(scale));
  e -= scale;
  std::int64_t bit = static_cast<std::int64_t>((bit_length(radicand) + 1) / 2);
  RefWords root;
  RefWords rem = radicand;
  while (bit >= 0) {
    // trial = (root << (bit + 1)) + (1 << 2 bit)
    RefWords trial = shift_left(root, static_cast<std::size_t>(bit) + 1);
    const auto pos = static_cast<std::size_t>(2 * bit);
    RefWords one_bit(pos / 64 + 1, 0);
    one_bit[pos / 64] = std::uint64_t{1} << (pos % 64);
    trial = add_words(trial, one_bit);
    if (compare_words(rem, trial) >= 0) {
      rem = sub_words(rem, trial);
      const auto rpos = static_cast<std::size_t>(bit);
      if (root.size() <= rpos / 64) root.resize(rpos / 64 + 1, 0);
      root[rpos / 64] |= std::uint64_t{1} << (rpos % 64);
    }
    --bit;
  }
  trim(root);
  return bf::BigFloat::from_significand(false, root, e / 2, !rem.empty(),
                                        ctx);
}

// ---- seeded operands --------------------------------------------------------

constexpr unsigned kPrecisions[] = {53, 113, 192, 256, 1024};
constexpr Rounding kModes[] = {Rounding::kNearestEven, Rounding::kNearestAway,
                               Rounding::kTowardZero, Rounding::kUp,
                               Rounding::kDown};

/// An exact value of 1..max_words random words with a random exponent in
/// [-exp_range, exp_range] and a random sign.
bf::BigFloat random_value(st::Xoshiro256pp& g, std::size_t max_words,
                          std::int64_t exp_range) {
  // Words drawn from the edge set reach Algorithm D's rare corrections
  // (a two-word estimate of 2^64, the add-back step).
  static constexpr std::uint64_t kEdges[] = {
      0, 1, 2, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000, 0x8000000000000001,
      0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF};
  const bool edgy = st::uniform_below(g, 3) == 0;
  std::vector<std::uint64_t> words(1 + st::uniform_below(g, max_words));
  for (auto& w : words) w = edgy ? kEdges[st::uniform_below(g, 8)] : g();
  if (words.back() == 0) words.back() = 1;
  // Occasionally a sparse significand: a lone top bit over zero words.
  if (st::uniform_below(g, 8) == 0) {
    std::fill(words.begin(), words.end() - 1, 0);
    words.back() = std::uint64_t{1} << st::uniform_below(g, 64);
  }
  const auto exp = static_cast<std::int64_t>(
                       st::uniform_below(g, 2 * exp_range + 1)) -
                   exp_range;
  const bf::Context exact{static_cast<unsigned>(64 * words.size()),
                          Rounding::kNearestEven};
  return bf::BigFloat::from_significand((g() & 1) != 0, words, exp, false,
                                        exact);
}

bf::Context exact_context(const bf::BigFloat& a, const bf::BigFloat& b) {
  return {static_cast<unsigned>(a.significant_bits() + b.significant_bits()),
          Rounding::kNearestEven};
}

void expect_same(const bf::BigFloat& got, const bf::BigFloat& want,
                 const char* what, unsigned precision, Rounding mode,
                 int index) {
  const std::string where = std::string(what) + " at precision " +
                            std::to_string(precision) + ", mode " +
                            std::to_string(static_cast<int>(mode)) +
                            ", case " + std::to_string(index);
  ASSERT_EQ(got.is_nan(), want.is_nan()) << where;
  if (want.is_nan()) return;
  EXPECT_EQ(bf::BigFloat::compare(got, want), 0)
      << where << ": " << got.to_string() << " vs " << want.to_string();
  EXPECT_EQ(got.negative(), want.negative()) << where;
}

void check_div(const bf::BigFloat& a, const bf::BigFloat& b,
               const bf::Context& ctx, int index) {
  expect_same(bf::BigFloat::div(a, b, ctx), reference_div(a, b, ctx), "div",
              ctx.precision, ctx.rounding, index);
}

void check_sqrt(const bf::BigFloat& a, const bf::Context& ctx, int index) {
  expect_same(bf::BigFloat::sqrt(a, ctx), reference_sqrt(a, ctx), "sqrt",
              ctx.precision, ctx.rounding, index);
}

TEST(BigFloatWordDivision, MatchesBitSerialOnRandomOperands) {
  st::Xoshiro256pp g(0xD1F);
  for (const unsigned p : kPrecisions) {
    // Operands up to one word past the precision, so 1024 bits crosses
    // the inline capacity.
    const std::size_t max_words = p / 64 + 2;
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 40; ++i) {
        const bf::BigFloat a = random_value(g, max_words, 64);
        const bf::BigFloat b = random_value(g, max_words, 64);
        check_div(a, b, ctx, i);
        check_sqrt(a.abs(), ctx, i);
      }
    }
  }
}

TEST(BigFloatWordDivision, MatchesBitSerialOnSingleWordOperands) {
  st::Xoshiro256pp g(0x51D);
  for (const unsigned p : kPrecisions) {
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 40; ++i) {
        const bf::BigFloat a = random_value(g, 1, 1100);
        const bf::BigFloat b = random_value(g, 1, 1100);
        check_div(a, b, ctx, i);
        check_sqrt(a.abs(), ctx, i);
      }
    }
  }
}

TEST(BigFloatWordDivision, ExactQuotientsAndRootsCarryNoSticky) {
  st::Xoshiro256pp g(0xE8AC);
  for (const unsigned p : kPrecisions) {
    const std::size_t max_words = std::max<std::size_t>(1, p / 128);
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 20; ++i) {
        const bf::BigFloat b = random_value(g, max_words, 200);
        const bf::BigFloat c = random_value(g, max_words, 200);
        const bf::BigFloat product =
            bf::BigFloat::mul(b, c, exact_context(b, c));
        check_div(product, b, ctx, i);
        const bf::BigFloat square =
            bf::BigFloat::mul(c, c, exact_context(c, c));
        check_sqrt(square, ctx, i);
        if (c.significant_bits() <= p) {
          // Representable results come back exactly in every mode.
          EXPECT_EQ(bf::BigFloat::compare(bf::BigFloat::div(product, b, ctx),
                                          c),
                    0);
          EXPECT_EQ(
              bf::BigFloat::compare(bf::BigFloat::sqrt(square, ctx), c.abs()),
              0);
        }
      }
    }
  }
}

TEST(BigFloatWordDivision, TiesRoundAlikeInEveryMode) {
  // c with exactly p + 1 significant bits, lowest one set, is a midpoint
  // at precision p: (b * c) / b and sqrt(c * c) are exact ties.
  st::Xoshiro256pp g(0x71E5);
  for (const unsigned p : kPrecisions) {
    const bf::Context wide{p + 1, Rounding::kNearestEven};
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 20; ++i) {
        std::vector<std::uint64_t> words(p / 64 + 1);
        for (auto& w : words) w = g();
        words[0] |= 1;
        if (p % 64 != 63) words.back() &= (std::uint64_t{2} << (p % 64)) - 1;
        words.back() |= std::uint64_t{1} << (p % 64);
        const bf::BigFloat c = bf::BigFloat::from_significand(
            (g() & 1) != 0, words, -17, false, wide);
        ASSERT_EQ(c.significant_bits(), p + 1);
        const bf::BigFloat b = random_value(g, 2, 40);
        check_div(bf::BigFloat::mul(b, c, exact_context(b, c)), b, ctx, i);
        check_sqrt(bf::BigFloat::mul(c, c, exact_context(c, c)), ctx, i);
      }
    }
  }
}

TEST(BigFloatWordDivision, ExponentsFarApart) {
  st::Xoshiro256pp g(0xFA8);
  for (const unsigned p : kPrecisions) {
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 10; ++i) {
        const bf::BigFloat a = random_value(g, 3, 1'000'000'000);
        const bf::BigFloat b = random_value(g, 3, 1'000'000'000);
        check_div(a, b, ctx, i);
        check_div(b, a, ctx, i);
        check_sqrt(a.abs(), ctx, i);
      }
    }
  }
}

TEST(BigFloatWordDivision, SpecialOperandsMatch) {
  const bf::BigFloat specials[] = {
      bf::BigFloat::zero(false),     bf::BigFloat::zero(true),
      bf::BigFloat::infinity(false), bf::BigFloat::infinity(true),
      bf::BigFloat::nan(),           bf::BigFloat::from_double(-3.0),
      bf::BigFloat::from_double(0.5)};
  const bf::Context ctx{192, Rounding::kNearestEven};
  int index = 0;
  for (const auto& a : specials) {
    check_sqrt(a, ctx, index);
    for (const auto& b : specials) check_div(a, b, ctx, index++);
  }
}

}  // namespace
