// fpq::ir — batched tape execution: one opcode across a stride of
// binding rows at a time (SoA register file), sharded over fpq::parallel.
//
// Instead of evaluating row-by-row (tree walk or scalar tape), the batch
// engine keeps a register FILE of `register_count() × lanes` in-format
// values and runs each instruction across every lane before advancing —
// the softfloat batch entry points (softfloat/batch.hpp) supply the lane
// loops. Per-lane flag words keep each row's sticky union isolated, so
// results are bit- and flag-identical to per-row evaluation; chunking
// follows the parallel substrate's determinism rules (bit-identical at
// every thread count). Nothing is memoized: every call executes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ir/batch.hpp"
#include "ir/tape.hpp"
#include "parallel/thread_pool.hpp"

namespace fpq::ir {

/// Executes rows [begin, end) of `table` on the calling thread; out[i]
/// receives row begin+i. Requires table.width >= tape.required_width()
/// (throws BindingWidthError otherwise) and out.size() == end - begin.
void execute_range(const Tape& tape, const BindingTable& table,
                   std::size_t begin, std::size_t end,
                   std::span<Outcome> out);

/// Span variant of execute_range: `rows` is a row-major block of
/// rows.size() / width binding rows that the caller owns — no BindingTable
/// (and no copy into one) required. out[i] receives row i. Requires
/// width >= tape.required_width() (throws BindingWidthError), rows.size()
/// divisible by width, and out.size() == rows.size() / width. This is the
/// sweep32 hot-loop entry point: a shard body streams its chunk through
/// the batched interpreter on the calling thread, which also keeps pool
/// shards reentrancy-safe (execute_batch may not run inside run_shards).
void execute_rows(const Tape& tape, std::span<const double> rows,
                  std::size_t width, std::span<Outcome> out);

/// The batched executor: shards the table's rows over the pool in
/// deterministic chunks and executes every one of them. Bit-identical at
/// every thread count and chunking.
std::vector<Outcome> execute_batch(parallel::ThreadPool& pool,
                                   const Tape& tape,
                                   const BindingTable& table,
                                   const BatchOptions& options = {});

/// Host-FPU SoA kernels (values only — the native evaluators deliberately
/// expose no per-op flags). Bit-identical to a NativeEvaluator64/32 tree
/// walk per row under the host's default FP environment; compile the tape
/// with format_bits 64 / 32 respectively. Folded/CSE'd tapes rely on the
/// softfloat engine agreeing with IEEE hardware in default rounding (the
/// repo's differential-oracle claim); use TapeOptions::exact_trace() when
/// an fpmon monitor must observe every source-level operation.
void execute_range_native64(const Tape& tape, const BindingTable& table,
                            std::size_t begin, std::size_t end,
                            std::span<double> out);
void execute_range_native32(const Tape& tape, const BindingTable& table,
                            std::size_t begin, std::size_t end,
                            std::span<double> out);

}  // namespace fpq::ir
