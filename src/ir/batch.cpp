#include "ir/batch.hpp"

#include <bit>
#include <cstdint>

#include "ir/tape.hpp"
#include "ir/tape_batch.hpp"

namespace fpq::ir {

std::uint64_t hash_bindings(std::span<const double> xs,
                            std::size_t width) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ (xs.size() + (width << 32));
  for (const double x : xs) {
    std::uint64_t z =
        h ^ (std::bit_cast<std::uint64_t>(x) + 0x9E3779B97F4A7C15ULL +
             (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = z ^ (z >> 27);
  }
  return h;
}

std::vector<Outcome> evaluate_many(parallel::ThreadPool& pool,
                                   const Expr& expr,
                                   const BindingTable& bindings,
                                   const EvalConfig& config,
                                   const BatchOptions& options) {
  // Compile (or fetch the cached tape for) the rewritten program once;
  // the batched executor then runs one opcode across a stride of rows at
  // a time instead of re-walking the tree per row. Tape::compile applies
  // the config's pipeline rewrite itself.
  const std::shared_ptr<const Tape> tape = Tape::cached(expr, config);
  return execute_batch(pool, *tape, bindings, options);
}

}  // namespace fpq::ir
