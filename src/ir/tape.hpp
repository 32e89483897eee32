// fpq::ir — the tape: Expr compiled to a flat post-order bytecode program.
//
// The tree walk (evaluator.hpp) is the REFERENCE implementation: one
// virtual call per node per sample, easy to audit, easy to decorate. The
// tape is the same program linearized once — a dense instruction array
// over register slots, a constant pool pre-converted into the target
// format, and variable-binding slots — so the per-sample cost is a tight
// loop over plain structs instead of pointer-chasing and dispatch. The
// differential suite pins the tape bit- and sticky-flag-identical to
// evaluate_tree. evaluate_many, sweep32's tape race, the gauntlet's clean
// baselines and the workloads' native context run the tape; backend
// ground truth and ir::evaluate walk the tree.
//
// Compilation is one post-order pass with two optional, semantics-
// preserving optimizations:
//
//   * CSE — hash consing makes structurally equal subtrees POINTER-equal,
//     so common-subexpression elimination is a pointer-keyed memo: each
//     distinct node is emitted once and later occurrences reuse its
//     register. Sound for values trivially, and sound for the STICKY flag
//     union because duplicate subtrees raise identical flags (the union
//     is idempotent). The per-op trace, however, sees each shared node
//     once instead of once per occurrence.
//
//   * Constant folding — a constant subtree is folded ONLY when every
//     operation in it is flag-clean under the tape's config (evaluated at
//     compile time on the softfloat engine itself). Folding 1.0/3.0 would
//     silently discard the inexact flag the program is entitled to
//     observe, so it stays in the instruction stream; 2.0*4.0 folds.
//     Exception provenance is therefore preserved exactly.
//
// TapeOptions::exact_trace() disables both, giving an instruction stream
// whose op sequence is the tree walk's visit sequence verbatim — required
// when an observer counts operations (TraceSink provenance, fpmon
// hardware monitoring of native runs, fault-injection site arming).
#pragma once

#include <cstdint>
#include <limits>
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

/// Compilation switches. Both default on; exact_trace() turns both off
/// for observers that need the tree walk's op sequence verbatim.
struct TapeOptions {
  bool cse = true;
  bool fold_constants = true;

  static constexpr TapeOptions exact_trace() { return {false, false}; }

  std::uint64_t bits() const noexcept {
    return (cse ? 1u : 0u) | (fold_constants ? 2u : 0u);
  }
  bool operator==(const TapeOptions&) const = default;
};

/// An Expr compiled for one EvalConfig. Immutable after compile; cheap to
/// share across threads (execution state lives in the engines).
class Tape {
 public:
  /// Compiles `expr` for `config`: applies the config's rewrite passes
  /// (contraction/reassociation), then linearizes post-order, children
  /// left to right, with CSE/folding per `options`.
  static Tape compile(const Expr& expr, const EvalConfig& config = {},
                      const TapeOptions& options = {});

  /// Process-wide compile memo: hash consing makes the root node pointer
  /// a stable identity, so (node, config, options) keys a compiled tape
  /// for the process lifetime. Repeated sweeps over the same request skip
  /// recompilation entirely.
  static std::shared_ptr<const Tape> cached(const Expr& expr,
                                            const EvalConfig& config = {},
                                            const TapeOptions& options = {});

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
  /// Source node of instruction `pc` (for TraceSink / on_result hooks).
  /// For a materialized folded subtree this is a synthesized constant
  /// node carrying the folded value.
  const Expr& source(std::size_t pc) const { return sources_[pc]; }

  std::size_t register_count() const noexcept { return register_count_; }
  std::uint32_t result_register() const noexcept { return result_register_; }
  /// 1 + the largest var_index the program reads (0 for closed trees):
  /// the minimum binding-span width that avoids the quiet-NaN fallback.
  std::size_t required_width() const noexcept { return required_width_; }

  const EvalConfig& config() const noexcept { return config_; }
  const TapeOptions& options() const noexcept { return options_; }

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
  std::vector<Expr> sources_;
  std::size_t register_count_ = 0;
  std::uint32_t result_register_ = 0;
  std::size_t required_width_ = 0;
  EvalConfig config_;
  TapeOptions options_;
  std::uint64_t fingerprint_ = 0;
  std::size_t folded_ops_ = 0;
  std::size_t cse_reuses_ = 0;

  friend class TapeCompiler;
};

/// Generic tape runner: drop-in replacement for evaluate_tree over ANY
/// Evaluator<V> — the evaluator's hooks fire with each instruction's
/// source node, so TraceSink/FlagControl/on_result behave exactly as in
/// the tree walk. On a tape compiled with TapeOptions::exact_trace() the
/// hook sequence is IDENTICAL to evaluate_tree's (same nodes, same
/// order); with CSE/folding enabled, shared nodes fire once and folded
/// flag-clean subtrees load as synthesized constants (values and sticky
/// flag unions are unchanged either way — see docs/ir.md).
///
/// Evaluators with semantics other than the tape's config (backends,
/// native FPU) should run exact_trace() tapes: folding is computed under
/// the config's softfloat arithmetic.
template <typename V>
V run_tape(const Tape& tape, Evaluator<V>& ev,
           std::span<const double> bindings = {}) {
  std::vector<V> regs(tape.register_count());
  const std::span<const TapeInst> code = tape.code();
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const TapeInst& in = code[pc];
    const Expr& e = tape.source(pc);
    V out{};
    switch (in.op) {
      case TapeOp::kConst:
        out = ev.constant(e);
        break;
      case TapeOp::kVar: {
        const double bound =
            in.a < bindings.size()
                ? bindings[in.a]
                : std::numeric_limits<double>::quiet_NaN();
        out = ev.variable(e, bound);
        break;
      }
      case TapeOp::kNeg:
        out = ev.neg(e, regs[in.a]);
        break;
      case TapeOp::kAdd:
        out = ev.add(e, regs[in.a], regs[in.b]);
        break;
      case TapeOp::kSub:
        out = ev.sub(e, regs[in.a], regs[in.b]);
        break;
      case TapeOp::kMul:
        out = ev.mul(e, regs[in.a], regs[in.b]);
        break;
      case TapeOp::kDiv:
        out = ev.div(e, regs[in.a], regs[in.b]);
        break;
      case TapeOp::kSqrt:
        out = ev.sqrt(e, regs[in.a]);
        break;
      case TapeOp::kFma:
        out = ev.fma(e, regs[in.a], regs[in.b], regs[in.c]);
        break;
      case TapeOp::kCmpEq:
        out = ev.cmp_eq(e, regs[in.a], regs[in.b]);
        break;
      case TapeOp::kCmpLt:
        out = ev.cmp_lt(e, regs[in.a], regs[in.b]);
        break;
    }
    ev.on_result(e, out);
    regs[in.dst] = out;
  }
  return regs[tape.result_register()];
}

/// Scalar softfloat engine: evaluates the tape in its config's format
/// with no virtual dispatch, keeping intermediates in-format between
/// operations (bit- and flag-identical to SoftEvaluator's widen/renarrow
/// discipline because widening is exact and re-narrowing an in-format
/// value is exact and quiet). Equivalent to evaluate(expr, config,
/// bindings, trace) on the tape's source expression.
Outcome execute(const Tape& tape, std::span<const double> bindings = {},
                TraceSink* trace = nullptr);

}  // namespace fpq::ir
