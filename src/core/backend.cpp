#include "core/backend.hpp"

#include <stdexcept>
#include <string>

#include "ir/evaluators.hpp"
#include "softfloat/ops.hpp"

namespace fpq::quiz {

namespace {

namespace sf = fpq::softfloat;

// Order is the one the sweeps and reports rely on.
constexpr Backend kBackendRegistry[] = {
    {"native-binary64", 64, true, false, false},
    {"native-binary32", 32, true, false, false},
    {"softfloat-binary64", 64, false, false, false},
    {"softfloat-binary32", 32, false, false, false},
    {"softfloat-binary16", 16, false, false, false},
    {"softfloat-bfloat16", sf::kBFloat16, false, false, false},
    {"softfloat-binary64-ftz-daz", 64, false, true, true},
};

enum class Named { kMaxFinite, kMinNormal, kMinSubnormal };

template <int kBits>
double named_value(Named which) {
  using F = sf::Float<kBits>;
  const F x = which == Named::kMaxFinite   ? F::max_finite()
              : which == Named::kMinNormal ? F::min_normal()
                                           : F::min_subnormal();
  sf::Env quiet;  // widening is exact
  return sf::to_native(sf::convert<64>(x, quiet));
}

double named_value(const Backend& backend, Named which) {
  switch (backend.format_bits) {
    case 16:
      return named_value<16>(which);
    case 32:
      return named_value<32>(which);
    case sf::kBFloat16:
      return named_value<sf::kBFloat16>(which);
    default:
      return named_value<64>(which);
  }
}

double two_operand(const Backend& backend, const ir::Expr& tree, double a,
                   double b) {
  const double bindings[] = {a, b};
  return run(backend, tree, bindings).value;
}

}  // namespace

std::span<const Backend> backend_registry() { return kBackendRegistry; }

const Backend& find_backend(std::string_view name) {
  for (const Backend& b : kBackendRegistry) {
    if (name == b.name) return b;
  }
  throw std::out_of_range("no quiz backend named " + std::string(name));
}

RunResult run(const Backend& backend, const ir::Expr& expr,
              std::span<const double> bindings) {
  if (backend.native) {
    mon::ScopedMonitor monitor;
    double value;
    if (backend.format_bits == 64) {
      ir::NativeEvaluator<double> ev;
      value = ir::evaluate_tree<double>(expr, ev, bindings);
    } else {
      ir::NativeEvaluator<float> ev;
      value = ir::evaluate_tree<double>(expr, ev, bindings);
    }
    return {value, monitor.stop()};
  }
  ir::EvalConfig config;
  config.format_bits = backend.format_bits;
  config.flush_to_zero = backend.flush_to_zero;
  config.denormals_are_zero = backend.denormals_are_zero;
  const ir::Outcome out = ir::evaluate(expr, config, bindings);
  return {sf::to_native(out.value),
          mon::ConditionSet::from_softfloat_flags(out.flags)};
}

bool equal(const Backend& backend, double a, double b) {
  static const ir::Expr tree = ir::Expr::cmp_eq(
      ir::Expr::variable("a", 0), ir::Expr::variable("b", 1));
  return two_operand(backend, tree, a, b) != 0.0;
}

bool less(const Backend& backend, double a, double b) {
  static const ir::Expr tree = ir::Expr::cmp_lt(
      ir::Expr::variable("a", 0), ir::Expr::variable("b", 1));
  return two_operand(backend, tree, a, b) != 0.0;
}

double canonicalize(const Backend& backend, double x) {
  static const ir::Expr tree = ir::Expr::variable("x", 0);
  return run(backend, tree, {&x, 1}).value;
}

double max_finite(const Backend& backend) {
  return named_value(backend, Named::kMaxFinite);
}
double min_normal(const Backend& backend) {
  return named_value(backend, Named::kMinNormal);
}
double min_subnormal(const Backend& backend) {
  return named_value(backend, Named::kMinSubnormal);
}

}  // namespace fpq::quiz
