#include "ir/tape_batch.hpp"

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdint>

#include "fpmon/flow.hpp"
#include "ir/native_ops.hpp"
#include "parallel/result_cache.hpp"
#include "parallel/shard.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/fast16.hpp"
#include "softfloat/fast32.hpp"
#include "softfloat/kernels.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

namespace {

/// The SoA interpreter for one chunk: registers live as
/// regs[reg * block + lane] in-format values, flags[lane] accumulates the
/// per-row sticky union. In-format intermediates are bit- and
/// flag-identical to SoftEvaluator's widen/renarrow-per-op discipline
/// (widening is exact; re-narrowing an in-format value is exact and
/// quiet; DAZ/FTZ act inside the ops either way). Every op is a batch
/// entry point, so the active kernel variant picks the engine (kScalar
/// forces the scalar reference loops for the whole stack).
///
/// Per-instruction passes stream every register array once, so lanes run
/// in blocks that keep the whole register file in L1 instead of
/// round-tripping a chunk-sized array through L2/L3 per opcode.
/// Independent lanes: blocking cannot change results.
template <int kBits>
void run_soft_lanes(const Tape& t, const double* values, std::size_t width,
                    std::size_t begin, std::size_t end, Outcome* out) {
  using F = sf::Float<kBits>;
  using Storage = typename F::Storage;
  constexpr std::size_t kLaneBlock = 1024;
  const EvalConfig& cfg = t.config();
  sf::Env env(cfg.rounding);
  env.set_flush_to_zero(cfg.flush_to_zero);
  env.set_denormals_are_zero(cfg.denormals_are_zero);
  sf::Env quiet(cfg.rounding);
  quiet.set_denormals_are_zero(cfg.denormals_are_zero);

  const std::size_t block = std::min(end - begin, kLaneBlock);
  std::vector<F> regs(t.register_count() * block);
  std::vector<unsigned> flags(block);
  const std::span<const std::uint64_t> pool = t.constant_bits();

  for (std::size_t r0 = begin; r0 < end; r0 += block) {
    const std::size_t lanes = std::min(end - r0, block);
    std::fill_n(flags.data(), lanes, 0u);
    for (const TapeInst& in : t.code()) {
      F* d = regs.data() + std::size_t{in.dst} * block;
      const F* a = regs.data() + std::size_t{in.a} * block;
      const F* b = regs.data() + std::size_t{in.b} * block;
      const F* c = regs.data() + std::size_t{in.c} * block;
      switch (in.op) {
        case TapeOp::kConst: {
          const F v = F::from_bits(static_cast<Storage>(pool[in.a]));
          std::fill_n(d, lanes, v);
          break;
        }
        case TapeOp::kVar:
          // Column in.a of the row-major block, one stride per row. The
          // entry points validated width > in.a, so no quiet-NaN lane.
          sf::narrow_from_double_n<kBits>(values + r0 * width + in.a, width,
                                          d, lanes, quiet);
          break;
        case TapeOp::kNeg:
          sf::neg_n<kBits>(a, d, lanes);
          break;
        case TapeOp::kAdd:
          sf::add_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
        case TapeOp::kSub:
          sf::sub_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
        case TapeOp::kMul:
          sf::mul_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
        case TapeOp::kDiv:
          sf::div_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
        case TapeOp::kSqrt:
          sf::sqrt_n<kBits>(a, d, flags.data(), lanes, env);
          break;
        case TapeOp::kFma:
          sf::fma_n<kBits>(a, b, c, d, flags.data(), lanes, env);
          break;
        case TapeOp::kCmpEq:
          sf::equal_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
        case TapeOp::kCmpLt:
          sf::less_n<kBits>(a, b, d, flags.data(), lanes, env);
          break;
      }
    }

    const F* result = regs.data() + std::size_t{t.result_register()} * block;
    Outcome* o = out + (r0 - begin);
    sf::Env widen_env;  // widening is exact
    for (std::size_t l = 0; l < lanes; ++l) {
      if constexpr (kBits == 64) {
        o[l].value = result[l];
      } else if constexpr (kBits == 32) {
        // Registers never hold a signaling NaN (operands and literals are
        // narrowed through quieting converts), so the integer widen is
        // convert<64, 32> bit for bit.
        o[l].value = sf::from_native(sf::fast32::widen(result[l]));
      } else {
        o[l].value = sf::convert<64>(result[l], widen_env);
      }
      o[l].flags = flags[l];
    }
  }
}

// The binary16 hot path: lanes hold binary16 VALUES as native doubles,
// ops run on the host FPU (pinned to round-to-nearest below) and fold
// back in-format through the scalar engine's own round/pack core — see
// softfloat/fast16.hpp for why every step is bit- and flag-identical to
// the softfloat operations. Lanes with special operands (NaN, infinity,
// division by zero, sqrt of a negative) drop to the scalar softfloat op,
// which keeps NaN payload propagation and invalid/divide-by-zero flags
// canonical without slowing the overwhelmingly common finite lanes.
void run_fast16_block(const Tape& t, const double* values, std::size_t width,
                      std::size_t begin, std::size_t end, Outcome* out) {
  namespace f16 = sf::fast16;
  using F16 = sf::Float16;
  const std::size_t lanes = end - begin;
  const EvalConfig& cfg = t.config();
  const sf::Rounding mode = cfg.rounding;
  const bool daz = cfg.denormals_are_zero;
  sf::Env env(mode);  // op env: FTZ/DAZ live, flags read per lane
  env.set_flush_to_zero(cfg.flush_to_zero);
  env.set_denormals_are_zero(daz);
  sf::Env quiet(mode);  // operand-narrowing env: flags discarded, no FTZ
  quiet.set_denormals_are_zero(daz);

  std::vector<double> regs(t.register_count() * lanes);
  std::vector<unsigned> flags(lanes, 0);
  const std::span<const std::uint64_t> pool = t.constant_bits();

  for (const TapeInst& in : t.code()) {
    double* d = regs.data() + std::size_t{in.dst} * lanes;
    const double* a = regs.data() + std::size_t{in.a} * lanes;
    const double* b = regs.data() + std::size_t{in.b} * lanes;
    const double* c = regs.data() + std::size_t{in.c} * lanes;
    switch (in.op) {
      case TapeOp::kConst: {
        const double v =
            f16::widen(F16::from_bits(static_cast<std::uint16_t>(pool[in.a])));
        for (std::size_t l = 0; l < lanes; ++l) d[l] = v;
        break;
      }
      case TapeOp::kVar:
        for (std::size_t l = 0; l < lanes; ++l) {
          const double x = values[(begin + l) * width + in.a];
          const std::uint64_t xb = std::bit_cast<std::uint64_t>(x);
          const auto be = (xb >> 52) & 0x7FF;
          if (be == 0) {  // signed zero or double-subnormal (DAZ range)
            d[l] = (xb << 1) == 0 ? x : f16::widen(sf::convert<16>(
                                            sf::from_native(x), quiet));
            continue;
          }
          if (be == 0x7FF) {  // infinity / NaN: quieting narrow
            d[l] = f16::widen(sf::convert<16>(sf::from_native(x), quiet));
            continue;
          }
          d[l] = f16::narrow16_value(x, mode);  // flags discarded
        }
        break;
      case TapeOp::kNeg:
        for (std::size_t l = 0; l < lanes; ++l) d[l] = f16::flip_sign(a[l]);
        break;
      case TapeOp::kAdd:
      case TapeOp::kSub: {
        const bool is_sub = in.op == TapeOp::kSub;
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l];
          if (!(f16::is_finite(av) && f16::is_finite(bv))) {
            env.clear_flags();
            const F16 r = is_sub
                              ? sf::sub(f16::to_f16(av), f16::to_f16(bv), env)
                              : sf::add(f16::to_f16(av), f16::to_f16(bv), env);
            flags[l] |= env.flags();
            d[l] = f16::widen(r);
            continue;
          }
          unsigned f = 0;
          if (daz) {
            av = f16::daz16(av);
            bv = f16::daz16(bv);
          } else if (f16::is_subnormal16(av) || f16::is_subnormal16(bv)) {
            f = sf::kFlagDenormalInput;
          }
          const double s = is_sub ? av - bv : av + bv;  // exact in double
          if (s == 0.0) {
            const bool sa = std::signbit(av);
            const bool sb = std::signbit(bv) != is_sub;  // addend sign
            const bool zs = (av == 0.0 && bv == 0.0 && sa == sb)
                                ? sa
                                : f16::exact_zero_sign(mode);
            d[l] = zs ? -0.0 : 0.0;
            flags[l] |= f;
            continue;
          }
          env.clear_flags();
          d[l] = f16::round16(s, env);
          flags[l] |= f | env.flags();
        }
        break;
      }
      case TapeOp::kMul:
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l];
          if (!(f16::is_finite(av) && f16::is_finite(bv))) {
            env.clear_flags();
            const F16 r = sf::mul(f16::to_f16(av), f16::to_f16(bv), env);
            flags[l] |= env.flags();
            d[l] = f16::widen(r);
            continue;
          }
          unsigned f = 0;
          if (daz) {
            av = f16::daz16(av);
            bv = f16::daz16(bv);
          } else if (f16::is_subnormal16(av) || f16::is_subnormal16(bv)) {
            f = sf::kFlagDenormalInput;
          }
          const double s = av * bv;  // exact: 11+11 significand bits
          if (s == 0.0) {            // sign is the XOR the standard wants
            d[l] = s;
            flags[l] |= f;
            continue;
          }
          env.clear_flags();
          d[l] = f16::round16(s, env);
          flags[l] |= f | env.flags();
        }
        break;
      case TapeOp::kDiv:
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l];
          unsigned f = 0;
          bool slow = !(f16::is_finite(av) && f16::is_finite(bv));
          if (!slow) {
            if (daz) {
              av = f16::daz16(av);
              bv = f16::daz16(bv);
            } else if (f16::is_subnormal16(av) || f16::is_subnormal16(bv)) {
              f = sf::kFlagDenormalInput;
            }
            slow = bv == 0.0;  // divide-by-zero / 0 over 0: canonical path
          }
          if (slow) {
            env.clear_flags();
            const F16 r = sf::div(f16::to_f16(a[l]), f16::to_f16(b[l]), env);
            flags[l] |= env.flags();
            d[l] = f16::widen(r);
            continue;
          }
          const double s = av / bv;  // correctly rounded; narrow innocuous
          if (s == 0.0) {
            d[l] = s;
            flags[l] |= f;
            continue;
          }
          env.clear_flags();
          d[l] = f16::round16(s, env);
          flags[l] |= f | env.flags();
        }
        break;
      case TapeOp::kSqrt:
        for (std::size_t l = 0; l < lanes; ++l) {
          double xv = a[l];
          unsigned f = 0;
          bool slow = !f16::is_finite(xv);
          if (!slow) {
            if (daz) {
              xv = f16::daz16(xv);
            } else if (f16::is_subnormal16(xv)) {
              f = sf::kFlagDenormalInput;
            }
            slow = std::signbit(xv) && xv != 0.0;  // invalid: canonical NaN
          }
          if (slow) {
            env.clear_flags();
            const F16 r = sf::sqrt(f16::to_f16(a[l]), env);
            flags[l] |= env.flags();
            d[l] = f16::widen(r);
            continue;
          }
          if (xv == 0.0) {  // sqrt(±0) = ±0, exact
            d[l] = xv;
            flags[l] |= f;
            continue;
          }
          env.clear_flags();
          d[l] = f16::round16(std::sqrt(xv), env);
          flags[l] |= f | env.flags();
        }
        break;
      case TapeOp::kFma:
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l], cv = c[l];
          if (!(f16::is_finite(av) && f16::is_finite(bv) &&
                f16::is_finite(cv))) {
            env.clear_flags();
            const F16 r = sf::fma(f16::to_f16(av), f16::to_f16(bv),
                                  f16::to_f16(cv), env);
            flags[l] |= env.flags();
            d[l] = f16::widen(r);
            continue;
          }
          unsigned f = 0;
          if (daz) {
            av = f16::daz16(av);
            bv = f16::daz16(bv);
            cv = f16::daz16(cv);
          } else if (f16::is_subnormal16(av) || f16::is_subnormal16(bv) ||
                     f16::is_subnormal16(cv)) {
            f = sf::kFlagDenormalInput;
          }
          const double t = av * bv;  // exact product
          const double s = t + cv;
          if (s == 0.0) {  // exact zero: |t + cv| >= 2^-48 when nonzero
            const bool psign = std::signbit(av) != std::signbit(bv);
            const bool zs = ((av == 0.0 || bv == 0.0) && cv == 0.0 &&
                             psign == std::signbit(cv))
                                ? psign
                                : f16::exact_zero_sign(mode);
            d[l] = zs ? -0.0 : 0.0;
            flags[l] |= f;
            continue;
          }
          // TwoSum error term; if the sum was inexact at binary64,
          // compress to round-to-odd so the in-format rounding sees which
          // side of every boundary the exact value is on.
          const double bb = s - t;
          const double err = (t - (s - bb)) + (cv - bb);
          double ro = s;
          if (err != 0.0 && (std::bit_cast<std::uint64_t>(s) & 1) == 0) {
            ro = f16::step_toward(s, err);
          }
          env.clear_flags();
          d[l] = f16::round16(ro, env);
          flags[l] |= f | env.flags();
        }
        break;
      case TapeOp::kCmpEq:
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l];
          if (av != av || bv != bv) {  // unordered; sNaN cannot be in-lane
            d[l] = 0.0;
            continue;
          }
          if (daz) {
            av = f16::daz16(av);
            bv = f16::daz16(bv);
          }
          d[l] = av == bv ? 1.0 : 0.0;  // comparisons raise no DE flag
        }
        break;
      case TapeOp::kCmpLt:
        for (std::size_t l = 0; l < lanes; ++l) {
          double av = a[l], bv = b[l];
          if (av != av || bv != bv) {  // signaling predicate: invalid
            flags[l] |= sf::kFlagInvalid;
            d[l] = 0.0;
            continue;
          }
          if (daz) {
            av = f16::daz16(av);
            bv = f16::daz16(bv);
          }
          d[l] = av < bv ? 1.0 : 0.0;
        }
        break;
    }
  }

  const double* result =
      regs.data() + std::size_t{t.result_register()} * lanes;
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l].value = sf::from_native(result[l]);
    out[l].flags = flags[l];
  }
}

// The same lane blocking as run_soft_lanes. Native arithmetic in the
// blocks requires round-to-nearest and must not leak host exception flags
// to the caller, so the whole fenv is saved around the sweep and restored
// after.
void run_fast16_lanes(const Tape& t, const double* values, std::size_t width,
                      std::size_t begin, std::size_t end, Outcome* out) {
  constexpr std::size_t kBlock = 1024;
  fenv_t saved_fenv;
  std::fegetenv(&saved_fenv);
  std::fesetround(FE_TONEAREST);
  for (std::size_t b = begin; b < end; b += kBlock) {
    const std::size_t e = b + kBlock < end ? b + kBlock : end;
    run_fast16_block(t, values, width, b, e, out + (b - begin));
  }
  std::fesetenv(&saved_fenv);
}

void check_width(const Tape& tape, const BindingTable& table) {
  if (table.width < tape.required_width()) {
    throw BindingWidthError(tape.required_width(), table.width);
  }
}

/// Dispatch one row block [begin, end) of a row-major value array to the
/// per-format interpreter. Callers have validated width.
void dispatch_soft(const Tape& tape, const double* values, std::size_t width,
                   std::size_t begin, std::size_t end, Outcome* out) {
  switch (tape.config().format_bits) {
    case 16:
      run_fast16_lanes(tape, values, width, begin, end, out);
      break;
    case 32:
      run_soft_lanes<32>(tape, values, width, begin, end, out);
      break;
    case sf::kBFloat16:
      run_soft_lanes<sf::kBFloat16>(tape, values, width, begin, end, out);
      break;
    default:
      run_soft_lanes<64>(tape, values, width, begin, end, out);
      break;
  }
}

}  // namespace

void execute_range(const Tape& tape, const BindingTable& table,
                   std::size_t begin, std::size_t end,
                   std::span<Outcome> out) {
  check_width(tape, table);
  dispatch_soft(tape, table.values.data(), table.width, begin, end,
                out.data());
}

void execute_rows(const Tape& tape, std::span<const double> rows,
                  std::size_t width, std::span<Outcome> out) {
  if (width < tape.required_width()) {
    throw BindingWidthError(tape.required_width(), width);
  }
  if (width == 0 || rows.size() % width != 0) {
    throw std::invalid_argument("execute_rows: rows.size() not a multiple "
                                "of width");
  }
  const std::size_t n = rows.size() / width;
  if (out.size() != n) {
    throw std::invalid_argument("execute_rows: out.size() != row count");
  }
  dispatch_soft(tape, rows.data(), width, 0, n, out.data());
}

std::vector<Outcome> execute_batch(parallel::ThreadPool& pool,
                                   const Tape& tape,
                                   const BindingTable& table,
                                   const BatchOptions& options) {
  const std::size_t n = table.rows();
  std::vector<Outcome> out(n);
  if (n == 0) return out;
  // Satellite fix: ONE width check per batch (evaluate_tree used to
  // re-check the span per variable per row), and a structured error
  // instead of quiet-NaN-poisoning every row of a short table. The
  // per-node quiet-NaN contract survives in the scalar paths.
  check_width(tape, table);

  const std::uint64_t tape_fp = tape.fingerprint();
  const std::size_t chunks =
      parallel::recommended_chunks(pool, n, options.min_rows_per_chunk);
  auto& cache = parallel::BatchResultCache::global();

  parallel::parallel_map_chunks(
      pool, n, chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        parallel::BatchKey key;
        if (options.memoize) {
          // Key on content only when the memo is in play: hashing every
          // binding is pure overhead for memoize=false sweeps.
          const std::span<const double> chunk_values =
              std::span<const double>(table.values)
                  .subspan(begin * table.width,
                           (end - begin) * table.width);
          key.tape_fingerprint = tape_fp;
          key.bindings_hash = hash_bindings(chunk_values, table.width);
          key.chunk = static_cast<std::uint32_t>(chunk);
          // Entries are keyed on the executing kernel variant: a cache
          // warmed under one variant is never read under another (see
          // BatchKey in parallel/result_cache.hpp).
          key.variant = static_cast<std::uint32_t>(
              sf::active_kernel_variant());
        }

        if (options.memoize) {
          if (const auto hit = cache.find(key);
              hit.has_value() && hit->outcomes.size() == end - begin) {
            for (std::size_t i = begin; i < end; ++i) {
              const auto& [value_bits, flags] = hit->outcomes[i - begin];
              out[i].value = softfloat::Float64{value_bits};
              out[i].flags = flags;
            }
            return;
          }
        }

        execute_range(tape, table, begin, end,
                      std::span<Outcome>(out).subspan(begin, end - begin));

        if (options.memoize) {
          // Memoize only after the whole chunk executed cleanly (the same
          // cache-consistency guard evaluate_many has always had).
          parallel::BatchChunkResult result;
          result.outcomes.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            result.outcomes.emplace_back(out[i].value.bits, out[i].flags);
          }
          cache.insert(key, result);
        }

        // Chunk boundaries are fpmon instrumentation seams: when a
        // collect_seams FlowMonitor is registered, harvest the worker's
        // fenv here; otherwise this is one relaxed atomic load.
        mon::FlowCollector::sample();
      });

  return out;
}

// -- Native SoA kernels -----------------------------------------------------

void execute_range_native64(const Tape& tape, const BindingTable& table,
                            std::size_t begin, std::size_t end,
                            std::span<double> out) {
  check_width(tape, table);
  const std::size_t lanes = end - begin;
  std::vector<double> regs(tape.register_count() * lanes);
  const std::span<const softfloat::Float64> pool = tape.constants();
  const double* values = table.values.data();
  for (const TapeInst& in : tape.code()) {
    double* d = regs.data() + std::size_t{in.dst} * lanes;
    const double* a = regs.data() + std::size_t{in.a} * lanes;
    const double* b = regs.data() + std::size_t{in.b} * lanes;
    const double* c = regs.data() + std::size_t{in.c} * lanes;
    switch (in.op) {
      case TapeOp::kConst: {
        const double v = sf::to_native(pool[in.a]);
        for (std::size_t l = 0; l < lanes; ++l) d[l] = v;
        break;
      }
      case TapeOp::kVar:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = values[(begin + l) * table.width + in.a];
        }
        break;
      case TapeOp::kNeg:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::flip_sign(a[l]);
        }
        break;
      case TapeOp::kAdd:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::add64(a[l], b[l]);
        }
        break;
      case TapeOp::kSub:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::sub64(a[l], b[l]);
        }
        break;
      case TapeOp::kMul:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::mul64(a[l], b[l]);
        }
        break;
      case TapeOp::kDiv:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::div64(a[l], b[l]);
        }
        break;
      case TapeOp::kSqrt:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::sqrt64(a[l]);
        }
        break;
      case TapeOp::kFma:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::fma64(a[l], b[l], c[l]);
        }
        break;
      case TapeOp::kCmpEq:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::eq64(a[l], b[l]) ? 1.0 : 0.0;
        }
        break;
      case TapeOp::kCmpLt:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::lt64(a[l], b[l]) ? 1.0 : 0.0;
        }
        break;
    }
  }
  const double* result =
      regs.data() + std::size_t{tape.result_register()} * lanes;
  for (std::size_t l = 0; l < lanes; ++l) out[l] = result[l];
}

void execute_range_native32(const Tape& tape, const BindingTable& table,
                            std::size_t begin, std::size_t end,
                            std::span<double> out) {
  check_width(tape, table);
  const std::size_t lanes = end - begin;
  // In-format float registers: NativeEvaluator32 widens each result to
  // double and re-narrows per op through the FPU, but re-narrowing an
  // in-format value is exact, so keeping lanes as float is bit-identical.
  std::vector<float> regs(tape.register_count() * lanes);
  const std::span<const softfloat::Float64> pool = tape.constants();
  const double* values = table.values.data();
  for (const TapeInst& in : tape.code()) {
    float* d = regs.data() + std::size_t{in.dst} * lanes;
    const float* a = regs.data() + std::size_t{in.a} * lanes;
    const float* b = regs.data() + std::size_t{in.b} * lanes;
    const float* c = regs.data() + std::size_t{in.c} * lanes;
    switch (in.op) {
      case TapeOp::kConst: {
        const float v = native::narrow32(sf::to_native(pool[in.a]));
        for (std::size_t l = 0; l < lanes; ++l) d[l] = v;
        break;
      }
      case TapeOp::kVar:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::narrow32(values[(begin + l) * table.width + in.a]);
        }
        break;
      case TapeOp::kNeg:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = static_cast<float>(
              native::flip_sign(static_cast<double>(a[l])));
        }
        break;
      case TapeOp::kAdd:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::add32(a[l], b[l]);
        }
        break;
      case TapeOp::kSub:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::sub32(a[l], b[l]);
        }
        break;
      case TapeOp::kMul:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::mul32(a[l], b[l]);
        }
        break;
      case TapeOp::kDiv:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::div32(a[l], b[l]);
        }
        break;
      case TapeOp::kSqrt:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::sqrt32(a[l]);
        }
        break;
      case TapeOp::kFma:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::fma32(a[l], b[l], c[l]);
        }
        break;
      case TapeOp::kCmpEq:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::eq64(a[l], b[l]) ? 1.0f : 0.0f;
        }
        break;
      case TapeOp::kCmpLt:
        for (std::size_t l = 0; l < lanes; ++l) {
          d[l] = native::lt64(a[l], b[l]) ? 1.0f : 0.0f;
        }
        break;
    }
  }
  const float* result =
      regs.data() + std::size_t{tape.result_register()} * lanes;
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l] = static_cast<double>(result[l]);
  }
}

}  // namespace fpq::ir
