#include "ir/tape_batch.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "fpmon/flow.hpp"
#include "parallel/shard.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/fast.hpp"

namespace fpq::ir {

namespace sf = fpq::softfloat;

namespace {

/// The SoA interpreter for one chunk, for every format: registers live as
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
/// Independent lanes: blocking cannot change results. With `reuse`, the
/// register file and flag words are this thread's scratch, kept across
/// calls (execute_rows: sweep32 runs it once per block and mode; nothing
/// the interpreter calls can re-enter it on the same thread); otherwise
/// they are this call's own.
template <int kBits>
void run_soft_lanes(const Tape& t, const double* values, std::size_t width,
                    std::size_t begin, std::size_t end, Outcome* out,
                    bool reuse) {
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
  thread_local std::vector<F> kept_regs;
  thread_local std::vector<unsigned> kept_flags;
  std::vector<F> own_regs;
  std::vector<unsigned> own_flags;
  std::vector<F>& reg_file = reuse ? kept_regs : own_regs;
  std::vector<unsigned>& lane_flags = reuse ? kept_flags : own_flags;
  if (reg_file.size() < t.register_count() * block) {
    reg_file.resize(t.register_count() * block);
  }
  if (lane_flags.size() < block) lane_flags.resize(block);
  // Raw pointers: stores through `out` cannot alias them, so the lane
  // loops need not reload a vector that may live in thread storage.
  F* const regs = reg_file.data();
  unsigned* const flags = lane_flags.data();
  const std::span<const std::uint64_t> pool = t.constant_bits();

  for (std::size_t r0 = begin; r0 < end; r0 += block) {
    const std::size_t lanes = std::min(end - r0, block);
    std::fill_n(flags, lanes, 0u);
    for (const TapeInst& in : t.code()) {
      F* d = regs + std::size_t{in.dst} * block;
      const F* a = regs + std::size_t{in.a} * block;
      const F* b = regs + std::size_t{in.b} * block;
      const F* c = regs + std::size_t{in.c} * block;
      switch (in.op) {
        case TapeOp::kConst: {
          const F v = F::from_bits(static_cast<Storage>(pool[in.a]));
          std::fill_n(d, lanes, v);
          break;
        }
        case TapeOp::kVar:
          // Column in.a of the row-major block, one stride per row. Every
          // entry point guarantees width > in.a (ir::execute pads a short
          // row with quiet NaN first).
          sf::narrow_from_double_n<kBits>(values + r0 * width + in.a, width,
                                          d, lanes, quiet);
          break;
        case TapeOp::kNeg:
          sf::neg_n<kBits>(a, d, lanes);
          break;
        case TapeOp::kAdd:
          sf::add_n<kBits>(a, b, d, flags, lanes, env);
          break;
        case TapeOp::kSub:
          sf::sub_n<kBits>(a, b, d, flags, lanes, env);
          break;
        case TapeOp::kMul:
          sf::mul_n<kBits>(a, b, d, flags, lanes, env);
          break;
        case TapeOp::kDiv:
          sf::div_n<kBits>(a, b, d, flags, lanes, env);
          break;
        case TapeOp::kSqrt:
          sf::sqrt_n<kBits>(a, d, flags, lanes, env);
          break;
        case TapeOp::kFma:
          sf::fma_n<kBits>(a, b, c, d, flags, lanes, env);
          break;
        case TapeOp::kCmpEq:
          sf::equal_n<kBits>(a, b, d, flags, lanes, env);
          break;
        case TapeOp::kCmpLt:
          sf::less_n<kBits>(a, b, d, flags, lanes, env);
          break;
      }
    }

    const F* result = regs + std::size_t{t.result_register()} * block;
    Outcome* o = out + (r0 - begin);
    sf::Env widen_env;  // widening is exact
    for (std::size_t l = 0; l < lanes; ++l) {
      // Registers never hold a signaling NaN (operands and literals are
      // narrowed through quieting converts), so the integer widens are
      // convert<64, 32> and convert<64, 16> bit for bit.
      if constexpr (kBits == 64) {
        o[l].value = result[l];
      } else if constexpr (kBits == 16 || kBits == 32) {
        o[l].value = sf::from_native(sf::fast::widen(result[l]));
      } else {
        o[l].value = sf::convert<64>(result[l], widen_env);
      }
      o[l].flags = flags[l];
    }
  }
}

/// Dispatch one row block [begin, end) of a row-major value array to the
/// per-format interpreter. Callers guarantee width >= required_width().
void dispatch_soft(const Tape& tape, const double* values, std::size_t width,
                   std::size_t begin, std::size_t end, Outcome* out,
                   bool reuse = false) {
  switch (tape.config().format_bits) {
    case 16:
      run_soft_lanes<16>(tape, values, width, begin, end, out, reuse);
      break;
    case 32:
      run_soft_lanes<32>(tape, values, width, begin, end, out, reuse);
      break;
    case sf::kBFloat16:
      run_soft_lanes<sf::kBFloat16>(tape, values, width, begin, end, out,
                                    reuse);
      break;
    default:
      run_soft_lanes<64>(tape, values, width, begin, end, out, reuse);
      break;
  }
}

}  // namespace

Outcome execute(const Tape& tape, std::span<const double> bindings) {
  const std::size_t width = tape.required_width();
  std::vector<double> row(width, std::numeric_limits<double>::quiet_NaN());
  std::copy_n(bindings.begin(), std::min(bindings.size(), width),
              row.begin());
  Outcome out;
  dispatch_soft(tape, row.data(), width, 0, 1, &out);
  return out;
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
  dispatch_soft(tape, rows.data(), width, 0, n, out.data(), /*reuse=*/true);
}

std::vector<Outcome> execute_batch(parallel::ThreadPool& pool,
                                   const Tape& tape,
                                   const BindingTable& table,
                                   const BatchOptions& options) {
  const std::size_t n = table.rows();
  std::vector<Outcome> out(n);
  if (n == 0) return out;
  // ONE width check per batch, and a structured error instead of
  // quiet-NaN-poisoning every row of a short table. The per-node
  // quiet-NaN contract survives in the tree walk and ir::execute.
  if (table.width < tape.required_width()) {
    throw BindingWidthError(tape.required_width(), table.width);
  }

  const std::size_t chunks =
      parallel::recommended_chunks(pool, n, options.min_rows_per_chunk);
  parallel::parallel_map_chunks(
      pool, n, chunks,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        dispatch_soft(tape, table.values.data(), table.width, begin, end,
                      out.data() + begin);
        // Chunk boundaries are fpmon instrumentation seams: when a
        // collect_seams FlowMonitor is registered, harvest the worker's
        // fenv here; otherwise this is one relaxed atomic load.
        mon::FlowCollector::sample();
      });

  return out;
}

}  // namespace fpq::ir
