// fpq::ir — batched evaluation: one tree, many operand bindings, sharded
// over fpq::parallel.
//
// Variables make a tree a function of its bindings, so sweeps ("this
// kernel over 10k inputs", "this question's probe over the operand pool")
// become ONE tree plus a binding table. evaluate_many compiles the tree
// to a tape once and shards the rows over the pool's work-stealing lanes
// through the batched interpreter (tape_batch.hpp): every row keeps its
// own sticky-flag word, each chunk writes only its own output slots, and
// the result is bit-identical at every thread count. Every call executes
// every row: nothing is memoized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/evaluators.hpp"
#include "parallel/thread_pool.hpp"

namespace fpq::ir {

/// A batch's binding table is narrower than the program requires. Batched
/// entry points validate the width ONCE per batch and throw this instead
/// of quiet-NaN-poisoning every row (the per-node quiet-NaN contract for a
/// single out-of-range `variable` still holds in the scalar evaluators).
struct BindingWidthError : std::invalid_argument {
  std::size_t required;
  std::size_t provided;
  BindingWidthError(std::size_t required_width, std::size_t provided_width)
      : std::invalid_argument(
            "binding table width " + std::to_string(provided_width) +
            " < required width " + std::to_string(required_width)),
        required(required_width),
        provided(provided_width) {}
};

/// Content hash of a span of binding values (by bit pattern, so -0.0 and
/// NaN payloads are distinguished like the evaluation distinguishes them).
/// Nothing in the library calls it since the batch memo was removed; it
/// stays only because the repository benchmark (perfbench/cpp/batch_b32.cpp)
/// hashes its tables with it to prove none repeats. Remove it with the
/// next benchmark change.
std::uint64_t hash_bindings(std::span<const double> xs,
                            std::size_t width) noexcept;

/// Row-major table of operand bindings: row r binds the tree's variables
/// var_index 0..width-1.
struct BindingTable {
  std::size_t width = 0;
  std::vector<double> values;  ///< rows() * width, row-major

  std::size_t rows() const noexcept {
    return width == 0 ? 0 : values.size() / width;
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return std::span<const double>(values).subspan(r * width, width);
  }
  void push_row(std::span<const double> xs) {
    for (const double x : xs) values.push_back(x);
  }
};

struct BatchOptions {
  /// Lower bound on rows per chunk (amortizes task overhead).
  std::size_t min_rows_per_chunk = 64;
};

/// Evaluates `expr` under `config` once per binding row. Outcome i
/// corresponds to row i; per-row flags are isolated (one flag word per
/// row). Deterministic: the same inputs give bit-identical outcomes at
/// every thread count and chunking.
std::vector<Outcome> evaluate_many(parallel::ThreadPool& pool,
                                   const Expr& expr,
                                   const BindingTable& bindings,
                                   const EvalConfig& config = {},
                                   const BatchOptions& options = {});

}  // namespace fpq::ir
