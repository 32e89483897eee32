// fpq::ir — the tape: Expr compiled to a flat post-order bytecode program.
//
// The tree walk (evaluator.hpp) is the REFERENCE implementation: one
// virtual call per node per sample, easy to audit, easy to decorate. The
// tape is the same program linearized once — a dense instruction array
// over register slots, a constant pool pre-converted into the target
// format, and variable-binding slots — so the per-sample cost is a tight
// loop over plain structs instead of pointer-chasing and dispatch. The
// differential suite pins the tape bit- and sticky-flag-identical to
// evaluate_tree. execute_batch's callers and sweep32's tape race compile
// a tape once per tree and own it; backend ground truth, ir::evaluate
// (with its per-op TraceSink) and every per-call workloads::EvalContext
// walk the tree.
//
// Compilation is one post-order pass with two semantics-preserving
// optimizations:
//
//   * CSE — hash consing makes structurally equal subtrees POINTER-equal,
//     so common-subexpression elimination is a pointer-keyed memo: each
//     distinct node is emitted once and later occurrences reuse its
//     register. Sound for values trivially, and sound for the STICKY flag
//     union because duplicate subtrees raise identical flags (the union
//     is idempotent).
//
//   * Constant folding — a constant subtree is folded ONLY when every
//     operation in it is flag-clean under the tape's config (evaluated at
//     compile time on the softfloat engine itself). Folding 1.0/3.0 would
//     silently discard the inexact flag the program is entitled to
//     observe, so it stays in the instruction stream; 2.0*4.0 folds.
//     Exception provenance is therefore preserved exactly.
//
// Both change how many operations execute, so an observer that counts
// operations (per-op traces, fault-site numbering, hardware monitoring of
// native runs) walks the tree instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/evaluator.hpp"
#include "ir/evaluators.hpp"

namespace fpq::ir {

/// Tape opcodes, one per ExprKind. kConst loads constant-pool slot `a`;
/// kVar loads binding slot `a` (narrowed into the format, quiet); the
/// rest read register operands a/b/c and write register dst.
enum class TapeOp : std::uint8_t {
  kConst,
  kVar,
  kNeg,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kSqrt,
  kFma,
  kCmpEq,
  kCmpLt,
};

/// Number of register operands an opcode reads (0 for the two loads).
constexpr int tape_op_arity(TapeOp op) noexcept {
  switch (op) {
    case TapeOp::kConst:
    case TapeOp::kVar:
      return 0;
    case TapeOp::kNeg:
    case TapeOp::kSqrt:
      return 1;
    case TapeOp::kFma:
      return 3;
    default:
      return 2;
  }
}

/// One tape instruction. `dst` is always a register; `a` is a pool index
/// (kConst), a binding slot (kVar) or a register; `b`/`c` are registers
/// when the arity uses them.
struct TapeInst {
  TapeOp op = TapeOp::kConst;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

/// An Expr compiled for one EvalConfig. Immutable after compile; cheap to
/// share across threads (execution state lives in the engines).
class Tape {
 public:
  /// Compiles `expr` for `config`: applies the config's rewrite passes
  /// (contraction/reassociation), then linearizes post-order, children
  /// left to right, with CSE and flag-clean folding.
  static Tape compile(const Expr& expr, const EvalConfig& config = {});

  /// Process-wide compile memo keyed by (root node, config), never
  /// evicted. Nothing in the library calls it: callers compile their tape
  /// once and own it. It stays only because the repository benchmark
  /// (perfbench/cpp/batch_b32.cpp) compiles through it and reports
  /// cache_stats(); remove it, CacheStats and clear_cache with the next
  /// benchmark change.
  static std::shared_ptr<const Tape> cached(const Expr& expr,
                                            const EvalConfig& config = {});

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  static CacheStats cache_stats();
  static void clear_cache();

  // -- The compiled program ----------------------------------------------
  std::span<const TapeInst> code() const noexcept { return code_; }
  /// Constant pool, pre-converted into the config's format, as raw
  /// in-format storage bits (the conversion is quiet, exactly
  /// SoftEvaluator's literal semantics, so loads raise nothing at run
  /// time).
  std::span<const std::uint64_t> constant_bits() const noexcept {
    return constant_bits_;
  }
  std::size_t register_count() const noexcept { return register_count_; }
  std::uint32_t result_register() const noexcept { return result_register_; }
  /// 1 + the largest var_index the program reads (0 for closed trees):
  /// the minimum binding-span width that avoids the quiet-NaN fallback.
  std::size_t required_width() const noexcept { return required_width_; }

  const EvalConfig& config() const noexcept { return config_; }

  /// Content fingerprint: a stable 64-bit hash over the instruction
  /// stream, constant pool, register/result/width shape and the config's
  /// runtime bits. Two tapes with equal fingerprints execute identically.
  /// Computed ONCE at compile; it names the program, never the kernel
  /// variant that executes it.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  // -- Compile-time observability ----------------------------------------
  /// Operations elided by folding (flag-clean constant subtrees).
  std::size_t folded_ops() const noexcept { return folded_ops_; }
  /// Instructions saved by CSE (reuses of an already-emitted node).
  std::size_t cse_reuses() const noexcept { return cse_reuses_; }

 private:
  Tape() = default;

  std::vector<TapeInst> code_;
  std::vector<std::uint64_t> constant_bits_;
  std::size_t register_count_ = 0;
  std::uint32_t result_register_ = 0;
  std::size_t required_width_ = 0;
  EvalConfig config_;
  std::uint64_t fingerprint_ = 0;
  std::size_t folded_ops_ = 0;
  std::size_t cse_reuses_ = 0;

  friend class TapeCompiler;
};

/// Scalar softfloat engine: evaluates the tape in its config's format
/// with no virtual dispatch, keeping intermediates in-format between
/// operations (bit- and flag-identical to SoftEvaluator's widen/renarrow
/// discipline because widening is exact and re-narrowing an in-format
/// value is exact and quiet). Equivalent to evaluate(expr, config,
/// bindings) on the tape's source expression; per-op provenance comes
/// from evaluate's TraceSink, not from here.
Outcome execute(const Tape& tape, std::span<const double> bindings = {});

}  // namespace fpq::ir
