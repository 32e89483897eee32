// fpq::ir — the one tape interpreter: one opcode across a stride of
// binding rows at a time (SoA register file), sharded over fpq::parallel.
//
// Instead of evaluating row by row like the tree walk, the interpreter
// keeps a register FILE of `register_count() × lanes` in-format values and
// runs each instruction across every lane before advancing — the softfloat
// batch entry points (softfloat/batch.hpp) supply the lane loops, so the
// active kernel variant (softfloat/kernels.hpp) picks the engine for every
// format and kScalar runs the scalar reference loops throughout. One
// interpreter serves binary16, binary32, binary64 and bfloat16, and every
// entry point below runs it: a single row is a block of one. Per-lane flag
// words keep each row's sticky union isolated, so results are bit- and
// flag-identical to per-row evaluation; chunking follows the parallel
// substrate's determinism rules (bit-identical at every thread count).
// Nothing is memoized: every call executes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ir/batch.hpp"
#include "ir/tape.hpp"
#include "parallel/thread_pool.hpp"

namespace fpq::ir {

/// One row of bindings through the interpreter. A variable past the end
/// of `bindings` reads quiet NaN, the tree walk's per-node contract; a
/// closed tape needs no bindings. Equivalent to evaluate(expr, config,
/// bindings) on the tape's source expression; per-op provenance comes
/// from evaluate's TraceSink, not from here. No library code calls it;
/// the parity tests and the repository benchmark's layer probe
/// (perfbench/cpp/sweep_sqrt.cpp) do.
Outcome execute(const Tape& tape, std::span<const double> bindings = {});

/// Executes a row-major block of rows.size() / width binding rows that the
/// caller owns on the calling thread — no BindingTable (and no copy into
/// one) required. out[i] receives row i. Requires width >=
/// tape.required_width() (throws BindingWidthError), rows.size() divisible
/// by a nonzero width, and out.size() == rows.size() / width (throws
/// std::invalid_argument otherwise). This is the sweep32 hot-loop entry
/// point: a chunk task streams its blocks through the interpreter on the
/// calling thread, which also keeps pool shards reentrancy-safe
/// (execute_batch may not run inside run_shards). Its register file and
/// flag words are per-thread scratch, kept from one call to the next.
void execute_rows(const Tape& tape, std::span<const double> rows,
                  std::size_t width, std::span<Outcome> out);

/// The batched executor: checks the table's width once (throws
/// BindingWidthError), then shards its rows over the pool in deterministic
/// chunks and executes every one of them. Bit-identical at every thread
/// count and chunking.
std::vector<Outcome> execute_batch(parallel::ThreadPool& pool,
                                   const Tape& tape,
                                   const BindingTable& table,
                                   const BatchOptions& options = {});

}  // namespace fpq::ir
