// BigFloat arithmetic at precision <= 256 stays inside the significand's
// inline words: this executable replaces the global operator new with a
// counting one and asserts that no operation allocates.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "bigfloat/bigfloat.hpp"
#include "stats/prng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never sees malloc/free paired with
// new/delete at a call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

namespace bf = fpq::bigfloat;
namespace st = fpq::stats;
using fpq::softfloat::Rounding;

template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

/// A random double in [1, 2): quotients of two are full-width values
/// near 1, so the exponent gaps below are what the test sets them to.
double gen_double(st::Xoshiro256pp& g) {
  return std::bit_cast<double>((std::uint64_t{1023} << 52) |
                               (g() & 0x000FFFFFFFFFFFFFULL));
}

TEST(BigFloatAlloc, CountingNewSeesHeapUse) {
  // The probe itself works: precision 1024 products spill to the heap.
  const bf::Context wide{1024, Rounding::kNearestEven};
  const bf::BigFloat third = bf::BigFloat::div(
      bf::BigFloat::from_int(1), bf::BigFloat::from_int(3), wide);
  bf::BigFloat out;
  const auto square = [&] { out = bf::BigFloat::mul(third, third, wide); };
  EXPECT_GT(allocations_in(square), 0u);
}

TEST(BigFloatAlloc, NoOperationAllocatesAtPrecision192And256) {
  constexpr Rounding kModes[] = {Rounding::kNearestEven,
                                 Rounding::kNearestAway,
                                 Rounding::kTowardZero, Rounding::kUp,
                                 Rounding::kDown};
  st::Xoshiro256pp g(0xA110C);
  for (const unsigned p : {192u, 256u}) {
    for (const Rounding mode : kModes) {
      const bf::Context ctx{p, mode};
      for (int i = 0; i < 50; ++i) {
        // Full-width operands: quotients of doubles fill all p bits.
        const double xs[] = {gen_double(g), gen_double(g), gen_double(g),
                             gen_double(g)};
        const bf::BigFloat a = bf::BigFloat::div(
            bf::BigFloat::from_double(xs[0]), bf::BigFloat::from_double(xs[1]),
            ctx);
        const bf::BigFloat b = bf::BigFloat::div(
            bf::BigFloat::from_double(xs[2]), bf::BigFloat::from_double(xs[3]),
            ctx);
        // Exponent gaps just inside add's exact-alignment limit (p + 64),
        // the widest intermediates: alone and under an exact fma product.
        const bf::BigFloat far = bf::BigFloat::mul(
            b, bf::BigFloat::from_double(std::ldexp(1.0, -60 - int(p))), ctx);
        bf::BigFloat out;
        double d = 0.0;
        int cmp = 0;
        using bf::BigFloat;
        const std::vector<std::pair<const char*, std::size_t>> counts = {
            {"from_double",
             allocations_in([&] { out = BigFloat::from_double(xs[0]); })},
            {"to_double", allocations_in([&] { d = a.to_double(); })},
            {"add", allocations_in([&] { out = BigFloat::add(a, b, ctx); })},
            {"add far",
             allocations_in([&] { out = BigFloat::add(a, far, ctx); })},
            {"sub", allocations_in([&] { out = BigFloat::sub(a, b, ctx); })},
            {"sub far",
             allocations_in([&] { out = BigFloat::sub(far, a, ctx); })},
            {"mul", allocations_in([&] { out = BigFloat::mul(a, b, ctx); })},
            {"div", allocations_in([&] { out = BigFloat::div(a, b, ctx); })},
            {"sqrt",
             allocations_in([&] { out = BigFloat::sqrt(a.abs(), ctx); })},
            {"fma",
             allocations_in([&] { out = BigFloat::fma(a, b, a, ctx); })},
            {"fma far",
             allocations_in([&] { out = BigFloat::fma(a, far, b, ctx); })},
            {"compare",
             allocations_in([&] { cmp = BigFloat::compare(a, b); })},
            {"copy", allocations_in([&] { out = BigFloat(a); })},
            {"relative_error",
             allocations_in([&] { d = bf::relative_error(xs[0], a, ctx); })},
        };
        for (const auto& [op, n] : counts) {
          EXPECT_EQ(n, 0u) << op << " at precision " << p << ", mode "
                           << static_cast<int>(mode);
        }
        EXPECT_FALSE(out.is_nan());
        EXPECT_TRUE(std::isfinite(d));
        EXPECT_NE(cmp, 2);
      }
    }
  }
}

}  // namespace
