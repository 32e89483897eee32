#include "parallel/oracle_sweep.hpp"

#include <algorithm>
#include <bit>
#include <cfenv>
#include <cmath>
#include <limits>
#include <sstream>

#include "parallel/shard.hpp"
#include "parallel/sweep_util.hpp"
#include "softfloat/ops.hpp"

namespace sf = fpq::softfloat;

namespace fpq::parallel {

const char* sweep_op_name(SweepOp op) noexcept {
  switch (op) {
    case SweepOp::kAdd:
      return "add";
    case SweepOp::kSub:
      return "sub";
    case SweepOp::kMul:
      return "mul";
    case SweepOp::kDiv:
      return "div";
    case SweepOp::kSqrt:
      return "sqrt";
    case SweepOp::kFma:
      return "fma";
  }
  return "?";
}

const char* operand_class_name(OperandClass c) noexcept {
  switch (c) {
    case OperandClass::kNormal:
      return "normal";
    case OperandClass::kSubnormal:
      return "subnormal";
    case OperandClass::kSpecial:
      return "special";
    case OperandClass::kMixed:
      return "mixed";
  }
  return "?";
}

namespace {

// The operand PRNG, fenv rounding guard and opaque hardware arithmetic
// are shared with sweep32 (parallel/sweep_util.hpp).
using sweep_detail::fenv_mode_of;
using sweep_detail::hw_add;
using sweep_detail::hw_div;
using sweep_detail::hw_fma;
using sweep_detail::hw_mul;
using sweep_detail::hw_sqrt;
using sweep_detail::hw_sub;
using sweep_detail::ScopedFenvRounding;
using sweep_detail::Sm64;

// -- Operand generation -----------------------------------------------------

template <int kBits>
typename sf::Float<kBits>::Storage gen_operand(OperandClass cls,
                                               Sm64& g) noexcept {
  using F = sf::Float<kBits>;
  using C = typename F::Constants;
  using S = typename F::Storage;
  const std::uint64_t r = g.next();
  switch (cls) {
    case OperandClass::kNormal: {
      const auto exp = static_cast<S>(
          1 + g.next() % static_cast<std::uint64_t>(C::kExpInfNan - 1));
      S bits = static_cast<S>((static_cast<S>(exp) << C::kSigBits) |
                              (static_cast<S>(r) & C::kFracMask));
      if (r >> 63) bits = static_cast<S>(bits | C::kSignMask);
      return bits;
    }
    case OperandClass::kSubnormal: {
      S frac = static_cast<S>(static_cast<S>(r) & C::kFracMask);
      if (frac == 0) frac = 1;
      return (r >> 63) ? static_cast<S>(frac | C::kSignMask) : frac;
    }
    case OperandClass::kSpecial: {
      static constexpr S kTable[] = {
          S{0},
          C::kSignMask,
          C::kPositiveInfinityBits,
          C::kNegativeInfinityBits,
          C::kDefaultNaNBits,
          static_cast<S>(C::kExpMask | S{1}),  // signaling NaN
          C::kMaxFiniteBits,
          static_cast<S>(C::kMaxFiniteBits | C::kSignMask),
          C::kMinNormalBits,
          static_cast<S>(C::kMinNormalBits | C::kSignMask),
          C::kMinSubnormalBits,
          static_cast<S>(C::kMinSubnormalBits | C::kSignMask),
          static_cast<S>(static_cast<S>(C::kBias) << C::kSigBits),  // 1.0
          static_cast<S>((static_cast<S>(C::kBias) << C::kSigBits) |
                         C::kSignMask),
      };
      return kTable[r % (sizeof(kTable) / sizeof(kTable[0]))];
    }
    case OperandClass::kMixed:
      return static_cast<S>(r);
  }
  return S{0};
}

// -- binary16 exact/tight references ---------------------------------------

using F16 = sf::Float16;

double widen16(F16 x) {
  sf::Env env;  // widening is exact; flags irrelevant here
  return sf::to_native(sf::convert<64>(x, env));
}

F16 narrow16(double v, sf::Rounding mode) {
  sf::Env env(mode);
  return sf::convert<16>(sf::from_native(v), env);
}

/// IEEE 854/754 6.3 sign rule for an EXACT zero sum of two addends: same
/// signs keep the common sign; exact cancellation is +0 in every mode
/// except roundTowardNegative.
double exact_zero_sum_sign(double lhs, double rhs, sf::Rounding mode) {
  const bool neg = std::signbit(lhs) == std::signbit(rhs)
                       ? std::signbit(lhs)
                       : mode == sf::Rounding::kDown;
  return neg ? -0.0 : 0.0;
}

struct TwoSum {
  double sum;
  double err;
};

TwoSum two_sum(double a, double b) noexcept {
  const double s = a + b;
  const double bb = s - a;
  const double err = (a - (s - bb)) + (b - bb);
  return {s, err};
}

/// Correctly rounded binary16 reference for every op and all five modes.
F16 ref_f16(SweepOp op, F16 a, F16 b, F16 c, sf::Rounding mode) {
  const double wa = widen16(a);
  switch (op) {
    case SweepOp::kAdd:
    case SweepOp::kSub: {
      // <= 50 significant bits: the binary64 sum is exact, so the single
      // soft narrowing under `mode` is the correctly rounded answer.
      const double wb =
          op == SweepOp::kSub ? -widen16(b) : widen16(b);
      double s = wa + wb;
      if (s == 0.0 && !std::isnan(wa) && !std::isnan(wb)) {
        s = exact_zero_sum_sign(wa, wb, mode);
      }
      return narrow16(s, mode);
    }
    case SweepOp::kMul:
      // 22 significant bits: exact, including the sign of zero products.
      return narrow16(wa * widen16(b), mode);
    case SweepOp::kDiv: {
      // Double rounding 53 -> 11 bits is innocuous for division when the
      // wide precision is >= 2p + 2 (Figueroa), and directed modes compose
      // exactly when the wide step uses the same direction. Ties-to-away:
      // a binary16 quotient can never be an 11-bit midpoint (the product
      // of a 12-bit-odd significand with any 11-bit significand needs >=
      // 12 bits), so ties never arise and the hardware's ties-to-even
      // intermediate serves both nearest modes.
      ScopedFenvRounding guard(fenv_mode_of(mode));
      return narrow16(hw_div(wa, widen16(b)), mode);
    }
    case SweepOp::kSqrt: {
      // Same structure as division: 53-bit correctly rounded sqrt narrows
      // exactly (>= 2p + 2), and a binary16 root can never be an 11-bit
      // midpoint (its square would need ~23 significand bits).
      ScopedFenvRounding guard(fenv_mode_of(mode));
      return narrow16(hw_sqrt(wa), mode);
    }
    case SweepOp::kFma: {
      const double p = wa * widen16(b);  // exact: 22 bits
      const double wc = widen16(c);
      if (!std::isfinite(p) || !std::isfinite(wc)) {
        // NaN/infinity propagation: the (possibly invalid) sum decides.
        return narrow16(p + wc, mode);
      }
      auto [s, err] = two_sum(p, wc);  // s + err == p + wc exactly
      if (s == 0.0) {
        // err is zero too (exact cancellation); apply the sign rule.
        return narrow16(exact_zero_sum_sign(p, wc, mode), mode);
      }
      if (err != 0.0) {
        // Round to odd (Boldo–Melquiond): with >= p + 2 extra bits the
        // final narrowing then rounds as if from the exact value, in
        // every rounding mode.
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
        if ((bits & 1) == 0) {
          s = std::nextafter(
              s, err > 0 ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity());
        }
      }
      return narrow16(s, mode);
    }
  }
  return F16{};
}

template <int kBits>
sf::Float<kBits> soft_op(SweepOp op, sf::Float<kBits> a, sf::Float<kBits> b,
                         sf::Float<kBits> c, sf::Env& env) {
  switch (op) {
    case SweepOp::kAdd:
      return sf::add(a, b, env);
    case SweepOp::kSub:
      return sf::sub(a, b, env);
    case SweepOp::kMul:
      return sf::mul(a, b, env);
    case SweepOp::kDiv:
      return sf::div(a, b, env);
    case SweepOp::kSqrt:
      return sf::sqrt(a, env);
    case SweepOp::kFma:
      return sf::fma(a, b, c, env);
  }
  return sf::Float<kBits>{};
}

constexpr bool is_unary(SweepOp op) noexcept { return op == SweepOp::kSqrt; }
constexpr bool is_ternary(SweepOp op) noexcept {
  return op == SweepOp::kFma;
}

template <int kBits>
bool same_result(sf::Float<kBits> x, sf::Float<kBits> y) noexcept {
  return (x.is_nan() && y.is_nan()) || x.bits == y.bits;
}

template <int kBits>
void note_mismatch(ShardResult& res, SweepOp op, sf::Rounding mode,
                   sf::Float<kBits> a, sf::Float<kBits> b,
                   sf::Float<kBits> c, sf::Float<kBits> got,
                   sf::Float<kBits> want) {
  ++res.mismatches;
  if (!res.first_mismatch.empty()) return;
  std::ostringstream os;
  os << sweep_op_name(op) << "<" << kBits << "> mode="
     << sf::rounding_to_string(mode) << " a=" << sf::describe(a);
  if (!is_unary(op)) os << " b=" << sf::describe(b);
  if (is_ternary(op)) os << " c=" << sf::describe(c);
  os << " soft=" << sf::describe(got) << " ref=" << sf::describe(want);
  res.first_mismatch = os.str();
}

// -- Task bodies ------------------------------------------------------------

ShardResult run_f16_task(SweepOp op, sf::Rounding mode, OperandClass cls,
                         std::uint64_t task_seed, std::size_t cases) {
  ShardResult res;
  Sm64 g(task_seed);
  for (std::size_t i = 0; i < cases; ++i) {
    const F16 a{gen_operand<16>(cls, g)};
    const F16 b = is_unary(op) ? F16{} : F16{gen_operand<16>(cls, g)};
    const F16 c = is_ternary(op) ? F16{gen_operand<16>(cls, g)} : F16{};
    sf::Env env(mode);
    const F16 got = soft_op<16>(op, a, b, c, env);
    const F16 want = ref_f16(op, a, b, c, mode);
    ++res.checked;
    if (!same_result(got, want)) {
      note_mismatch(res, op, mode, a, b, c, got, want);
    }
  }
  return res;
}

template <int kBits, typename Native>
ShardResult run_native_task(SweepOp op, sf::Rounding mode, OperandClass cls,
                            std::uint64_t task_seed, std::size_t cases) {
  using F = sf::Float<kBits>;
  ShardResult res;
  Sm64 g(task_seed);
  const ScopedFenvRounding guard(fenv_mode_of(mode));
  for (std::size_t i = 0; i < cases; ++i) {
    const F a{gen_operand<kBits>(cls, g)};
    const F b = is_unary(op) ? F{} : F{gen_operand<kBits>(cls, g)};
    const F c = is_ternary(op) ? F{gen_operand<kBits>(cls, g)} : F{};
    sf::Env env(mode);
    const F got = soft_op<kBits>(op, a, b, c, env);
    const Native na = std::bit_cast<Native>(a.bits);
    const Native nb = std::bit_cast<Native>(b.bits);
    const Native nc = std::bit_cast<Native>(c.bits);
    Native nr{};
    switch (op) {
      case SweepOp::kAdd:
        nr = hw_add(na, nb);
        break;
      case SweepOp::kSub:
        nr = hw_sub(na, nb);
        break;
      case SweepOp::kMul:
        nr = hw_mul(na, nb);
        break;
      case SweepOp::kDiv:
        nr = hw_div(na, nb);
        break;
      case SweepOp::kSqrt:
        nr = hw_sqrt(na);
        break;
      case SweepOp::kFma:
        nr = hw_fma(na, nb, nc);
        break;
    }
    const F want{std::bit_cast<typename F::Storage>(nr)};
    ++res.checked;
    if (!same_result(got, want)) {
      note_mismatch(res, op, mode, a, b, c, got, want);
    }
  }
  return res;
}

// -- Orchestration ----------------------------------------------------------

struct TaskSpec {
  SweepOp op;
  sf::Rounding mode;
  OperandClass cls;
  std::uint32_t task = 0;
};

std::uint64_t cell_seed(std::uint64_t base, int format_bits, SweepOp op,
                        sf::Rounding mode, OperandClass cls) noexcept {
  const auto cell = (std::uint64_t{static_cast<std::uint8_t>(format_bits)}
                     << 24) |
                    (std::uint64_t{static_cast<std::uint8_t>(op)} << 16) |
                    (std::uint64_t{static_cast<std::uint8_t>(mode)} << 8) |
                    std::uint64_t{static_cast<std::uint8_t>(cls)};
  return base ^ (cell * 0x9E3779B97F4A7C15ULL);
}

template <typename Runner>
SweepReport run_sweep(ThreadPool& pool, int format_bits,
                      const SweepConfig& config, Runner&& runner) {
  std::vector<TaskSpec> specs;
  for (SweepOp op : config.ops) {
    for (sf::Rounding mode : config.modes) {
      for (OperandClass cls : config.classes) {
        for (std::size_t t = 0; t < config.tasks_per_axis; ++t) {
          specs.push_back({op, mode, cls, static_cast<std::uint32_t>(t)});
        }
      }
    }
  }

  const auto outcomes = parallel_map(
      pool, specs.size(), [&](std::size_t i) -> ShardResult {
        const TaskSpec& spec = specs[i];
        const std::uint64_t seed = shard_seed(
            cell_seed(config.seed, format_bits, spec.op, spec.mode,
                      spec.cls),
            spec.task);
        return runner(spec.op, spec.mode, spec.cls, seed,
                      config.cases_per_task);
      });

  SweepReport report;
  report.tasks = outcomes.size();
  for (const ShardResult& out : outcomes) {  // fixed index order
    report.checked += out.checked;
    report.mismatches += out.mismatches;
    if (report.first_mismatch.empty() && !out.first_mismatch.empty()) {
      report.first_mismatch = out.first_mismatch;
    }
  }
  return report;
}

}  // namespace

SweepReport run_binary16_sweep(ThreadPool& pool, const SweepConfig& config) {
  return run_sweep(pool, 16, config, run_f16_task);
}

SweepReport run_native_sweep(ThreadPool& pool, int format_bits,
                             const SweepConfig& config) {
  SweepConfig filtered = config;
  // The host FPU cannot express roundTiesToAway; skip rather than fail.
  std::erase(filtered.modes, sf::Rounding::kNearestAway);
  if (format_bits == 32) {
    return run_sweep(pool, 32, filtered, run_native_task<32, float>);
  }
  return run_sweep(pool, 64, filtered, run_native_task<64, double>);
}

SweepReport run_exhaustive_binary16(ThreadPool& pool,
                                    const ExhaustiveConfig& config) {
  constexpr std::size_t kSpace = 0x10000;
  struct Cell {
    SweepOp op;
    sf::Rounding mode;
  };
  std::vector<Cell> cells;
  for (SweepOp op : config.ops) {
    for (sf::Rounding mode : config.modes) cells.push_back({op, mode});
  }
  const std::size_t chunks =
      std::min<std::size_t>(config.chunks_per_cell, kSpace);
  const std::size_t total_shards = cells.size() * chunks;

  const auto partials = parallel_map(
      pool, total_shards, [&](std::size_t shard) -> ShardResult {
        const Cell& cell = cells[shard / chunks];
        const ChunkRange range =
            chunk_range(kSpace, chunks, shard % chunks);
        const std::uint64_t base = cell_seed(
            config.seed, 16, cell.op, cell.mode, OperandClass::kMixed);
        ShardResult res;
        for (std::size_t raw = range.begin; raw < range.end; ++raw) {
          const F16 a{static_cast<std::uint16_t>(raw)};
          // Partner operands are seeded per (cell, a), so results are
          // independent of the chunking as well as the thread count.
          Sm64 g(shard_seed(base, raw));
          const std::size_t samples =
              is_unary(cell.op) ? 1 : config.samples_per_operand;
          for (std::size_t s = 0; s < samples; ++s) {
            const F16 b = is_unary(cell.op)
                              ? F16{}
                              : F16{static_cast<std::uint16_t>(g.next())};
            const F16 c = is_ternary(cell.op)
                              ? F16{static_cast<std::uint16_t>(g.next())}
                              : F16{};
            sf::Env env(cell.mode);
            const F16 got = soft_op<16>(cell.op, a, b, c, env);
            const F16 want = ref_f16(cell.op, a, b, c, cell.mode);
            ++res.checked;
            if (!same_result(got, want)) {
              note_mismatch(res, cell.op, cell.mode, a, b, c, got, want);
            }
          }
        }
        return res;
      });

  SweepReport report;
  report.tasks = partials.size();
  for (const ShardResult& partial : partials) {
    report.checked += partial.checked;
    report.mismatches += partial.mismatches;
    if (report.first_mismatch.empty() && !partial.first_mismatch.empty()) {
      report.first_mismatch = partial.first_mismatch;
    }
  }
  return report;
}

}  // namespace fpq::parallel
