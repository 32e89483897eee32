#include "ir/evaluators.hpp"

#include <cstdint>

#include "parallel/hash.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

std::uint64_t EvalConfig::fingerprint() const noexcept {
  std::uint64_t packed = static_cast<std::uint64_t>(format_bits);
  packed = (packed << 3) | static_cast<std::uint64_t>(rounding);
  packed = (packed << 1) | static_cast<std::uint64_t>(contract_mul_add);
  packed = (packed << 1) | static_cast<std::uint64_t>(reassociate);
  packed = (packed << 1) | static_cast<std::uint64_t>(flush_to_zero);
  packed = (packed << 1) | static_cast<std::uint64_t>(denormals_are_zero);
  // Hash so distinct configs land in distinct stripes.
  return parallel::mix64(packed);
}

namespace {

template <int kBits>
Outcome evaluate_soft(const Expr& tree, const EvalConfig& config,
                      std::span<const double> bindings, TraceSink* trace) {
  SoftEvaluator<kBits> ev(config, trace);
  Outcome out;
  out.value = sf::from_native(evaluate_tree<double>(tree, ev, bindings));
  out.flags = ev.flags();
  return out;
}

Outcome evaluate_format(const Expr& tree, const EvalConfig& config,
                        std::span<const double> bindings, TraceSink* trace) {
  switch (config.format_bits) {
    case 16:
      return evaluate_soft<16>(tree, config, bindings, trace);
    case 32:
      return evaluate_soft<32>(tree, config, bindings, trace);
    case sf::kBFloat16:
      return evaluate_soft<sf::kBFloat16>(tree, config, bindings, trace);
    default:
      return evaluate_soft<64>(tree, config, bindings, trace);
  }
}

}  // namespace

Outcome evaluate(const Expr& expr, const EvalConfig& config,
                 std::span<const double> bindings, TraceSink* trace) {
  // Without rewrites the caller's tree is walked as it is. A copy would
  // bump the shared node's reference count, a cache line that threads
  // walking one tree at once (sweep32's walk lane) then fight over.
  if (!config.contract_mul_add && !config.reassociate) {
    return evaluate_format(expr, config, bindings, trace);
  }
  return evaluate_format(
      pipeline_rewrite(expr, config.contract_mul_add, config.reassociate),
      config, bindings, trace);
}

}  // namespace fpq::ir
