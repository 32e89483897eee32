// Batched comparisons (equal_n / less_n) against the scalar predicates,
// bit- and flag-exact: a corner corpus crossed with itself (quiet and
// signaling NaNs, signed zeros, signed subnormals, signed infinities and
// the normals next to each class boundary), DAZ off and on, every format,
// under every kernel variant.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "softfloat/batch.hpp"
#include "softfloat/kernels.hpp"
#include "softfloat/ops.hpp"

namespace sf = fpq::softfloat;

namespace {

template <int kBits>
std::vector<sf::Float<kBits>> corner_corpus() {
  using F = sf::Float<kBits>;
  std::vector<F> base = {
      F::zero(),          F::quiet_nan(),     F::signaling_nan(),
      F::infinity(),      F::max_finite(),    F::min_normal(),
      F::min_subnormal(), F::one(),
  };
  const auto step = [](F x, int d) {
    return F::from_bits(static_cast<typename F::Storage>(x.bits + d));
  };
  base.push_back(step(F::min_normal(), -1));  // max subnormal
  base.push_back(step(F::min_normal(), 1));
  base.push_back(step(F::min_subnormal(), 1));
  base.push_back(step(F::one(), 1));
  base.push_back(step(F::one(), -1));
  base.push_back(step(F::max_finite(), -1));
  base.push_back(step(F::quiet_nan(), 1));  // payload
  std::vector<F> out;
  for (const F x : base) {
    out.push_back(x);
    out.push_back(x.negated());
  }
  return out;
}

std::vector<sf::KernelVariant> all_variants() {
  std::vector<sf::KernelVariant> v{sf::KernelVariant::kScalar,
                                   sf::KernelVariant::kPortable};
  if (sf::kernel_variant_available(sf::KernelVariant::kAvx2)) {
    v.push_back(sf::KernelVariant::kAvx2);
  }
  return v;
}

template <int kBits>
void expect_compare_parity() {
  using F = sf::Float<kBits>;
  const std::vector<F> corpus = corner_corpus<kBits>();
  std::vector<F> a;
  std::vector<F> b;
  for (const F x : corpus) {
    for (const F y : corpus) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  const std::size_t n = a.size();
  for (const sf::KernelVariant v : all_variants()) {
    sf::ScopedKernelVariant forced(v);
    ASSERT_TRUE(forced.applied());
    for (const bool daz : {false, true}) {
      for (const bool is_less : {false, true}) {
        sf::Env env;
        env.set_denormals_are_zero(daz);
        std::vector<F> out(n);
        std::vector<unsigned> flags(n, 0);
        if (is_less) {
          sf::less_n<kBits>(a.data(), b.data(), out.data(), flags.data(), n,
                            env);
        } else {
          sf::equal_n<kBits>(a.data(), b.data(), out.data(), flags.data(), n,
                             env);
        }
        for (std::size_t i = 0; i < n; ++i) {
          sf::Env ref_env;
          ref_env.set_denormals_are_zero(daz);
          const bool want = is_less ? sf::less(a[i], b[i], ref_env)
                                    : sf::equal(a[i], b[i], ref_env);
          const F want_value = want ? F::one() : F::zero();
          ASSERT_EQ(out[i].bits, want_value.bits)
              << (is_less ? "less" : "equal") << " lane " << i << " a "
              << std::hex << a[i].bits << " b " << b[i].bits << " daz "
              << daz << " variant " << sf::kernel_variant_name(v);
          ASSERT_EQ(flags[i], ref_env.flags())
              << (is_less ? "less" : "equal") << " flags lane " << i
              << " a " << std::hex << a[i].bits << " b " << b[i].bits
              << " daz " << daz << " variant " << sf::kernel_variant_name(v);
        }
      }
    }
  }
}

}  // namespace

TEST(BatchCompare, Binary16MatchesScalarPredicates) {
  expect_compare_parity<16>();
}
TEST(BatchCompare, Binary32MatchesScalarPredicates) {
  expect_compare_parity<32>();
}
TEST(BatchCompare, Binary64MatchesScalarPredicates) {
  expect_compare_parity<64>();
}
TEST(BatchCompare, BFloat16MatchesScalarPredicates) {
  expect_compare_parity<sf::kBFloat16>();
}
