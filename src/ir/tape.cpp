#include "ir/tape.hpp"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "ir/rewrite.hpp"
#include "softfloat/ops.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

namespace {

constexpr std::uint32_t kNoReg = 0xFFFFFFFFu;

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return z ^ (z >> 27);
}

TapeOp op_of(ExprKind kind) noexcept {
  switch (kind) {
    case ExprKind::kConst:
      return TapeOp::kConst;
    case ExprKind::kVar:
      return TapeOp::kVar;
    case ExprKind::kNeg:
      return TapeOp::kNeg;
    case ExprKind::kAdd:
      return TapeOp::kAdd;
    case ExprKind::kSub:
      return TapeOp::kSub;
    case ExprKind::kMul:
      return TapeOp::kMul;
    case ExprKind::kDiv:
      return TapeOp::kDiv;
    case ExprKind::kSqrt:
      return TapeOp::kSqrt;
    case ExprKind::kFma:
      return TapeOp::kFma;
    case ExprKind::kCmpEq:
      return TapeOp::kCmpEq;
    default:
      return TapeOp::kCmpLt;
  }
}

// Per-format compile-time arithmetic, replicating SoftEvaluator's
// narrow/widen discipline exactly (evaluators.hpp): literal/operand
// narrowing is quiet with DAZ propagated, widening is exact.
template <int kBits>
struct FormatArith {
  using F = sf::Float<kBits>;

  static F narrow(double x, const EvalConfig& cfg) {
    if constexpr (kBits == 64) {
      return sf::from_native(x);
    } else {
      sf::Env quiet(cfg.rounding);
      quiet.set_denormals_are_zero(cfg.denormals_are_zero);
      return sf::convert<kBits>(sf::from_native(x), quiet);
    }
  }
  static double widen(F x) {
    if constexpr (kBits == 64) {
      return sf::to_native(x);
    } else {
      sf::Env quiet;  // widening is exact
      return sf::to_native(sf::convert<64>(x, quiet));
    }
  }

  /// In-format storage bits of `x` (already an in-format widened value or
  /// a raw literal; the narrowing here is SoftEvaluator's quiet literal
  /// conversion).
  static std::uint64_t format_bits(double x, const EvalConfig& cfg) {
    return static_cast<std::uint64_t>(narrow(x, cfg).bits);
  }

  /// Literal semantics: widen(narrow(v)) — always quiet.
  static double literal(double v, const EvalConfig& cfg) {
    return widen(narrow(v, cfg));
  }

  /// Attempts the operation at compile time. Succeeds ONLY when the op
  /// raises no flags under the config's rounding/FTZ/DAZ — a flag-raising
  /// op must stay in the instruction stream so exception provenance is
  /// preserved.
  static bool try_op(TapeOp op, std::span<const double> kids,
                     const EvalConfig& cfg, double* out) {
    sf::Env env(cfg.rounding);
    env.set_flush_to_zero(cfg.flush_to_zero);
    env.set_denormals_are_zero(cfg.denormals_are_zero);
    const auto k = [&](std::size_t i) { return narrow(kids[i], cfg); };
    F r;
    switch (op) {
      case TapeOp::kNeg:
        // Sign-bit operation: never raises (IEEE 5.5.1).
        *out = widen(k(0).negated());
        return true;
      case TapeOp::kAdd:
        r = sf::add(k(0), k(1), env);
        break;
      case TapeOp::kSub:
        r = sf::sub(k(0), k(1), env);
        break;
      case TapeOp::kMul:
        r = sf::mul(k(0), k(1), env);
        break;
      case TapeOp::kDiv:
        r = sf::div(k(0), k(1), env);
        break;
      case TapeOp::kSqrt:
        r = sf::sqrt(k(0), env);
        break;
      case TapeOp::kFma:
        r = sf::fma(k(0), k(1), k(2), env);
        break;
      case TapeOp::kCmpEq: {
        const bool eq = sf::equal(k(0), k(1), env);
        if (env.flags() != 0) return false;
        *out = eq ? 1.0 : 0.0;
        return true;
      }
      case TapeOp::kCmpLt: {
        const bool lt = sf::less(k(0), k(1), env);
        if (env.flags() != 0) return false;
        *out = lt ? 1.0 : 0.0;
        return true;
      }
      default:
        return false;  // kConst/kVar never reach here
    }
    if (env.flags() != 0) return false;
    *out = widen(r);
    return true;
  }
};

template <typename Fn>
auto dispatch_format(int format_bits, Fn&& fn) {
  switch (format_bits) {
    case 16:
      return fn(std::integral_constant<int, 16>{});
    case 32:
      return fn(std::integral_constant<int, 32>{});
    case sf::kBFloat16:
      return fn(std::integral_constant<int, sf::kBFloat16>{});
    default:
      return fn(std::integral_constant<int, 64>{});
  }
}

double fold_literal(double v, const EvalConfig& cfg) {
  return dispatch_format(cfg.format_bits, [&](auto tag) {
    return FormatArith<decltype(tag)::value>::literal(v, cfg);
  });
}

std::uint64_t literal_format_bits(double v, const EvalConfig& cfg) {
  return dispatch_format(cfg.format_bits, [&](auto tag) {
    return FormatArith<decltype(tag)::value>::format_bits(v, cfg);
  });
}

bool try_fold_op(TapeOp op, std::span<const double> kids,
                 const EvalConfig& cfg, double* out) {
  return dispatch_format(cfg.format_bits, [&](auto tag) {
    return FormatArith<decltype(tag)::value>::try_op(op, kids, cfg, out);
  });
}

}  // namespace

/// One compile: a post-order emission pass over the (rewritten) tree with
/// pointer-keyed CSE and flag-clean constant folding, followed by a
/// linear-scan register-reuse pass (registers are freed at their last
/// read, so the SoA interpreter's register file stays small and cache-warm).
class TapeCompiler {
 public:
  explicit TapeCompiler(const EvalConfig& config) : config_(config) {}

  Tape run(const Expr& root) {
    const int slot = visit(root);
    tape_.result_register_ = materialize(slot);
    allocate_registers();
    tape_.config_ = config_;
    tape_.fingerprint_ = fingerprint();
    return std::move(tape_);
  }

 private:
  // A visited subtree is either a folded compile-time value, a register,
  // or both (a folded value that some consumer already materialized).
  struct Slot {
    bool folded = false;
    double value = 0.0;  ///< widened in-format value when folded
    std::uint32_t reg = kNoReg;
  };

  int visit(const Expr& e) {
    const Expr::Node& n = e.node();
    if (const auto it = memo_.find(&n); it != memo_.end()) {
      ++tape_.cse_reuses_;
      return it->second;
    }
    int slot = -1;
    switch (n.kind) {
      case ExprKind::kConst: {
        const double v = fold_literal(sf::to_native(n.value), config_);
        slot = make_slot(Slot{true, v, kNoReg});
        break;
      }
      case ExprKind::kVar: {
        if (n.var_index + std::size_t{1} > tape_.required_width_) {
          tape_.required_width_ = n.var_index + std::size_t{1};
        }
        Slot s;
        s.reg = emit(TapeInst{TapeOp::kVar, next_vreg(), n.var_index, 0, 0});
        slot = make_slot(s);
        break;
      }
      default: {
        const std::size_t nkids = n.children.size();
        int kid_slots[3] = {-1, -1, -1};
        for (std::size_t i = 0; i < nkids; ++i) {
          kid_slots[i] = visit(n.children[i]);
        }
        const TapeOp op = op_of(n.kind);
        bool all_folded = true;
        double kid_values[3] = {0, 0, 0};
        for (std::size_t i = 0; i < nkids; ++i) {
          const Slot& k = slots_[static_cast<std::size_t>(kid_slots[i])];
          all_folded = all_folded && k.folded;
          kid_values[i] = k.value;
        }
        double folded_value = 0.0;
        if (all_folded &&
            try_fold_op(op, std::span<const double>(kid_values, nkids),
                        config_, &folded_value)) {
          ++tape_.folded_ops_;
          slot = make_slot(Slot{true, folded_value, kNoReg});
          break;
        }
        TapeInst inst{op, 0, 0, 0, 0};
        std::uint32_t kid_regs[3] = {0, 0, 0};
        for (std::size_t i = 0; i < nkids; ++i) {
          kid_regs[i] = materialize(kid_slots[i]);
        }
        inst.a = kid_regs[0];
        inst.b = kid_regs[1];
        inst.c = kid_regs[2];
        inst.dst = next_vreg();
        Slot s;
        s.reg = emit(inst);
        slot = make_slot(s);
        break;
      }
    }
    memo_.emplace(&n, slot);
    return slot;
  }

  /// Ensures a slot has a register, emitting a constant load for a folded
  /// value on first use.
  std::uint32_t materialize(int slot_index) {
    Slot& s = slots_[static_cast<std::size_t>(slot_index)];
    if (s.reg == kNoReg) s.reg = emit_const(s.value);
    return s.reg;
  }

  std::uint32_t emit_const(double widened) {
    const std::uint64_t fbits = literal_format_bits(widened, config_);
    std::uint32_t pool_index;
    if (const auto it = pool_index_.find(fbits); it != pool_index_.end()) {
      pool_index = it->second;
    } else {
      pool_index = static_cast<std::uint32_t>(tape_.constant_bits_.size());
      tape_.constant_bits_.push_back(fbits);
      pool_index_.emplace(fbits, pool_index);
    }
    return emit(TapeInst{TapeOp::kConst, next_vreg(), pool_index, 0, 0});
  }

  std::uint32_t emit(TapeInst inst) {
    tape_.code_.push_back(inst);
    return inst.dst;
  }

  std::uint32_t next_vreg() { return vreg_count_++; }

  int make_slot(Slot s) {
    slots_.push_back(s);
    return static_cast<int>(slots_.size()) - 1;
  }

  /// Linear-scan register reuse: a virtual register is freed after the
  /// instruction performing its last read (the result register is pinned
  /// to the end), and freed registers are recycled for later
  /// destinations. In-place destinations (dst == operand) are safe: every
  /// lane loop reads a lane's operands before writing its result.
  void allocate_registers() {
    auto& code = tape_.code_;
    const std::size_t npc = code.size();
    std::vector<std::size_t> last_use(vreg_count_, 0);
    for (std::size_t pc = 0; pc < npc; ++pc) {
      const TapeInst& in = code[pc];
      const int arity = tape_op_arity(in.op);
      if (arity >= 1) last_use[in.a] = pc;
      if (arity >= 2) last_use[in.b] = pc;
      if (arity >= 3) last_use[in.c] = pc;
    }
    last_use[tape_.result_register_] = npc;

    std::vector<std::uint32_t> phys(vreg_count_, kNoReg);
    std::vector<std::uint32_t> free_list;
    std::uint32_t next_phys = 0;
    for (std::size_t pc = 0; pc < npc; ++pc) {
      TapeInst& in = code[pc];
      const int arity = tape_op_arity(in.op);
      std::uint32_t operands[3] = {in.a, in.b, in.c};
      for (int i = 0; i < arity; ++i) {
        const std::uint32_t vreg = operands[i];
        // Free once per distinct operand reaching its last read here.
        bool seen = false;
        for (int j = 0; j < i; ++j) seen = seen || operands[j] == vreg;
        if (!seen && last_use[vreg] == pc) {
          free_list.push_back(phys[vreg]);
        }
      }
      if (arity >= 1) in.a = phys[operands[0]];
      if (arity >= 2) in.b = phys[operands[1]];
      if (arity >= 3) in.c = phys[operands[2]];
      std::uint32_t d;
      if (free_list.empty()) {
        d = next_phys++;
      } else {
        d = free_list.back();
        free_list.pop_back();
      }
      phys[in.dst] = d;
      in.dst = d;
    }
    tape_.register_count_ = next_phys;
    tape_.result_register_ = phys[tape_.result_register_];
  }

  std::uint64_t fingerprint() const {
    // Only the bits that determine execution: rewrite flags are already
    // baked into the instruction stream, so two configs that compile to
    // the same program deliberately share a fingerprint.
    std::uint64_t h = 0x5441504531ULL;  // "TAPE1"
    h = hash_combine(h, static_cast<std::uint64_t>(config_.format_bits));
    h = hash_combine(h, static_cast<std::uint64_t>(config_.rounding));
    h = hash_combine(h, (config_.flush_to_zero ? 2u : 0u) |
                            (config_.denormals_are_zero ? 1u : 0u));
    h = hash_combine(h, tape_.code_.size());
    for (const TapeInst& in : tape_.code_) {
      h = hash_combine(h, static_cast<std::uint64_t>(in.op));
      h = hash_combine(h, (std::uint64_t{in.dst} << 32) | in.a);
      h = hash_combine(h, (std::uint64_t{in.b} << 32) | in.c);
    }
    for (const std::uint64_t bits : tape_.constant_bits_) {
      h = hash_combine(h, bits);
    }
    h = hash_combine(h, tape_.register_count_);
    h = hash_combine(h, tape_.result_register_);
    h = hash_combine(h, tape_.required_width_);
    return h;
  }

  EvalConfig config_;
  Tape tape_;
  std::vector<Slot> slots_;
  std::unordered_map<const void*, int> memo_;
  std::unordered_map<std::uint64_t, std::uint32_t> pool_index_;
  std::uint32_t vreg_count_ = 0;
};

Tape Tape::compile(const Expr& expr, const EvalConfig& config) {
  const Expr tree = pipeline_rewrite(expr, config.contract_mul_add,
                                     config.reassociate);
  return TapeCompiler(config).run(tree);
}

// -- Compile memo -----------------------------------------------------------

namespace {

struct TapeCacheKey {
  const void* node = nullptr;
  std::uint64_t config_fp = 0;

  bool operator==(const TapeCacheKey&) const = default;
};

struct TapeCacheKeyHash {
  std::size_t operator()(const TapeCacheKey& k) const noexcept {
    return static_cast<std::size_t>(
        hash_combine(reinterpret_cast<std::uintptr_t>(k.node), k.config_fp));
  }
};

struct TapeCacheState {
  std::mutex mutex;
  std::unordered_map<TapeCacheKey, std::shared_ptr<const Tape>,
                     TapeCacheKeyHash>
      map;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

TapeCacheState& tape_cache() {
  static TapeCacheState state;
  return state;
}

}  // namespace

std::shared_ptr<const Tape> Tape::cached(const Expr& expr,
                                         const EvalConfig& config) {
  // Interned nodes live for the process lifetime, so the root pointer is
  // a stable identity for (tree, rewrites-applied-at-compile).
  TapeCacheKey key{&expr.node(), config.fingerprint()};
  TapeCacheState& cache = tape_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    if (const auto it = cache.map.find(key); it != cache.map.end()) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  cache.misses.fetch_add(1, std::memory_order_relaxed);
  auto tape = std::make_shared<const Tape>(compile(expr, config));
  std::lock_guard<std::mutex> lock(cache.mutex);
  // First writer wins (identical by determinism of compile anyway).
  return cache.map.try_emplace(key, std::move(tape)).first->second;
}

Tape::CacheStats Tape::cache_stats() {
  TapeCacheState& cache = tape_cache();
  CacheStats out;
  out.hits = cache.hits.load();
  out.misses = cache.misses.load();
  std::lock_guard<std::mutex> lock(cache.mutex);
  out.entries = cache.map.size();
  return out;
}

void Tape::clear_cache() {
  TapeCacheState& cache = tape_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.map.clear();
  cache.hits.store(0);
  cache.misses.store(0);
}

}  // namespace fpq::ir
