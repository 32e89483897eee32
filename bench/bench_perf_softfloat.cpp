// Performance of the softfloat engine vs host hardware (google-benchmark),
// plus the binary16 rows of the sweep32 differential grid at several
// thread counts (the parallel engine's scaling benchmark).
//
// Not a paper figure — an engineering characterization of the substrate:
// how much slower is the bit-exact software implementation, per operation
// and format, and what FTZ/emulation modes cost.
//
// Usage: bench_perf_softfloat [--threads N[,N...]] [google-benchmark args]
// The default sweep registers thread counts 1, 2, 4 and 8; a thread count
// that is not a positive integer exits 2.
//
// --tape-gate switches to the CI perf-smoke mode instead of
// google-benchmark: the exhaustive binary16 IR sweep workload is timed on
// the virtual tree walk and on the tape interpreter, batched on one and on
// the largest --threads count of pool threads, side by side (verifying
// bit-identical values and flag unions across all of them), the timings
// are printed, and the process exits 1 if the batched interpreter on one
// thread is slower than the tree walk and 2 if any run diverges.
// --gate-samples=N (1..64) and --gate-modes=N (1..5) shrink the sweep for
// CI; a bad value, or any other argument in this mode, exits 2, as does
// an argument google-benchmark does not know.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "ir/ir.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/ops.hpp"
#include "stats/prng.hpp"

namespace sf = fpq::softfloat;
namespace ir = fpq::ir;

namespace {

std::vector<double> make_operands(std::size_t n, std::uint64_t seed) {
  fpq::stats::Xoshiro256pp g(seed);
  std::vector<double> out(n);
  for (auto& x : out) {
    // Finite normals of moderate exponent (no special-case bias).
    const std::uint64_t frac = g() & 0x000FFFFFFFFFFFFFULL;
    const std::uint64_t exp = 1023 - 30 + fpq::stats::uniform_below(g, 60);
    const std::uint64_t sign = g() & 0x8000000000000000ULL;
    x = std::bit_cast<double>(sign | (exp << 52) | frac);
  }
  return out;
}

constexpr std::size_t kN = 4096;

template <typename Op>
void soft_binop_bench(benchmark::State& state, Op op) {
  const auto xs = make_operands(kN, 1);
  const auto ys = make_operands(kN, 2);
  sf::Env env;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = op(sf::from_native(xs[i]), sf::from_native(ys[i]), env);
    benchmark::DoNotOptimize(r.bits);
    i = (i + 1) % kN;
  }
}

void BM_SoftAdd64(benchmark::State& state) {
  soft_binop_bench(state, [](sf::Float64 a, sf::Float64 b, sf::Env& e) {
    return sf::add(a, b, e);
  });
}
void BM_SoftMul64(benchmark::State& state) {
  soft_binop_bench(state, [](sf::Float64 a, sf::Float64 b, sf::Env& e) {
    return sf::mul(a, b, e);
  });
}
void BM_SoftDiv64(benchmark::State& state) {
  soft_binop_bench(state, [](sf::Float64 a, sf::Float64 b, sf::Env& e) {
    return sf::div(a, b, e);
  });
}
void BM_SoftFma64(benchmark::State& state) {
  const auto xs = make_operands(kN, 3);
  const auto ys = make_operands(kN, 4);
  const auto zs = make_operands(kN, 5);
  sf::Env env;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = sf::fma(sf::from_native(xs[i]), sf::from_native(ys[i]),
                           sf::from_native(zs[i]), env);
    benchmark::DoNotOptimize(r.bits);
    i = (i + 1) % kN;
  }
}
void BM_SoftSqrt64(benchmark::State& state) {
  const auto xs = make_operands(kN, 6);
  sf::Env env;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = sf::sqrt(sf::from_native(xs[i]).abs(), env);
    benchmark::DoNotOptimize(r.bits);
    i = (i + 1) % kN;
  }
}

void BM_SoftAdd64Ftz(benchmark::State& state) {
  const auto xs = make_operands(kN, 7);
  const auto ys = make_operands(kN, 8);
  sf::Env env;
  env.set_flush_to_zero(true);
  env.set_denormals_are_zero(true);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r =
        sf::add(sf::from_native(xs[i]), sf::from_native(ys[i]), env);
    benchmark::DoNotOptimize(r.bits);
    i = (i + 1) % kN;
  }
}

// Hardware baselines for the speedup ratio.
void BM_HardwareAdd64(benchmark::State& state) {
  const auto xs = make_operands(kN, 1);
  const auto ys = make_operands(kN, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    volatile double r = xs[i] + ys[i];
    benchmark::DoNotOptimize(r);
    i = (i + 1) % kN;
  }
}
void BM_HardwareDiv64(benchmark::State& state) {
  const auto xs = make_operands(kN, 1);
  const auto ys = make_operands(kN, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    volatile double r = xs[i] / ys[i];
    benchmark::DoNotOptimize(r);
    i = (i + 1) % kN;
  }
}

// -- fpq::ir evaluation overhead and batch throughput --------------------
//
// The same degree-8 Horner polynomial three ways: a hand-rolled softfloat
// loop (what the pre-IR modules did), a per-call IR tree walk (virtual
// dispatch + traversal overhead on top of the same 16 softfloat ops), and
// the batched tape executor sharded over the pool.

constexpr std::array<double, 9> kPolyCoeffs{1.25,  -0.5,  3.0,   0.125,
                                            -2.75, 0.875, -1.5,  2.0,
                                            -0.0625};

ir::Expr poly_tree() {
  return ir::Expr::horner(std::span<const double>(kPolyCoeffs),
                          ir::Expr::variable("x", 0));
}

void BM_DirectSoftHorner64(benchmark::State& state) {
  const auto xs = make_operands(kN, 9);
  sf::Env env;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto x = sf::from_native(xs[i]);
    auto acc = sf::from_native(kPolyCoeffs[0]);
    for (std::size_t k = 1; k < kPolyCoeffs.size(); ++k) {
      acc = sf::add(sf::mul(acc, x, env), sf::from_native(kPolyCoeffs[k]),
                    env);
    }
    benchmark::DoNotOptimize(acc.bits);
    i = (i + 1) % kN;
  }
}

void BM_IrTreeWalkHorner64(benchmark::State& state) {
  const auto tree = poly_tree();
  const auto xs = make_operands(kN, 9);
  const auto cfg = ir::EvalConfig::ieee_strict();
  std::size_t i = 0;
  for (auto _ : state) {
    const std::array<double, 1> binding{xs[i]};
    const auto r = ir::evaluate(tree, cfg, binding);
    benchmark::DoNotOptimize(r.value.bits);
    i = (i + 1) % kN;
  }
}

// The same Horner polynomial on the compiled tape, batched over a table
// of rows, so one run reports the tree walk and the tape interpreter side
// by side.
void BM_IrTapeBatchHorner64(benchmark::State& state, int threads) {
  fpq::parallel::ThreadPool pool(static_cast<std::size_t>(threads));
  const ir::Tape tape = ir::Tape::compile(poly_tree());
  ir::BindingTable table;
  table.width = 1;
  table.values = make_operands(kN, 10);
  for (auto _ : state) {
    auto out = ir::execute_batch(pool, tape, table);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN));
}

BENCHMARK(BM_SoftAdd64);
BENCHMARK(BM_SoftMul64);
BENCHMARK(BM_SoftDiv64);
BENCHMARK(BM_SoftFma64);
BENCHMARK(BM_SoftSqrt64);
BENCHMARK(BM_SoftAdd64Ftz);
BENCHMARK(BM_HardwareAdd64);
BENCHMARK(BM_HardwareDiv64);
BENCHMARK(BM_DirectSoftHorner64);
BENCHMARK(BM_IrTreeWalkHorner64);

// The binary16 rows of the sweep32 grid: sqrt16 over all 2^16 encodings
// and the five pair rows over every first operand x 2 partners, five
// rounding modes each. Same work at every thread count, so the reported
// real times give the scaling curve directly.
void BM_ExhaustiveBinary16Sweep(benchmark::State& state, int threads) {
  namespace sw = fpq::parallel::sweep32;
  constexpr sw::SweepOp kRows[] = {
      sw::SweepOp::kSqrt16, sw::SweepOp::kAdd16, sw::SweepOp::kSub16,
      sw::SweepOp::kMul16,  sw::SweepOp::kDiv16, sw::SweepOp::kFma16,
  };
  std::uint64_t checked = 0;
  for (auto _ : state) {
    for (const sw::SweepOp op : kRows) {
      sw::Sweep32Config config;
      config.op = op;
      config.end = op == sw::SweepOp::kSqrt16 ? 0 : 2 * 0x10000;
      config.chunk_bits = 12;
      config.threads = static_cast<std::size_t>(threads);
      const sw::Sweep32Report report = sw::run_sweep32(config);
      if (report.mismatches != 0) {
        const std::string msg = "differential mismatch: " +
                                report.mismatch_samples.front();
        state.SkipWithError(msg.c_str());
        return;
      }
      checked += report.checked;
      benchmark::DoNotOptimize(report.checked);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(checked));
}

// -- The --tape-gate perf-smoke mode -------------------------------------
//
// One workload, the tree walk and the tape interpreter at two pool sizes,
// hard parity checks, machine-readable output. The workload is the
// paper's exhaustive binary16 differential sweep reshaped as IR programs:
// every 2^16 first-operand encoding x sampled partners, through
// add/sub/mul/div/sqrt/fma trees, per rounding mode, format binary16.

using GateClock = std::chrono::steady_clock;

double seconds_since(GateClock::time_point t0) {
  return std::chrono::duration<double>(GateClock::now() - t0).count();
}

int run_tape_gate(int samples, int modes, int max_threads) {
  namespace par = fpq::parallel;
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  const ir::Expr z = ir::Expr::variable("z", 2);
  const ir::Expr trees[] = {ir::Expr::add(x, y),  ir::Expr::sub(x, y),
                            ir::Expr::mul(x, y),  ir::Expr::div(x, y),
                            ir::Expr::sqrt(x),    ir::Expr::fma(x, y, z)};
  const sf::Rounding all_modes[] = {
      sf::Rounding::kNearestEven, sf::Rounding::kTowardZero,
      sf::Rounding::kDown, sf::Rounding::kUp, sf::Rounding::kNearestAway};

  // Binding table: every binary16 encoding as first operand, seeded
  // binary16-valued partners (so all operands are exactly representable).
  sf::Env quiet;
  const auto widen16 = [&quiet](std::uint16_t bits) {
    return sf::to_native(sf::convert<64>(sf::Float16{bits}, quiet));
  };
  fpq::stats::Xoshiro256pp g(20180521);
  ir::BindingTable table;
  table.width = 3;
  table.values.reserve(3u * 0x10000u * static_cast<unsigned>(samples));
  for (int s = 0; s < samples; ++s) {
    for (std::uint32_t raw = 0; raw <= 0xFFFF; ++raw) {
      table.values.push_back(widen16(static_cast<std::uint16_t>(raw)));
      table.values.push_back(widen16(static_cast<std::uint16_t>(g())));
      table.values.push_back(widen16(static_cast<std::uint16_t>(g())));
    }
  }
  const std::size_t rows = table.rows();

  par::ThreadPool pool_one(1);
  par::ThreadPool pool_many(static_cast<std::size_t>(std::max(1, max_threads)));

  double walk_s = 0, batch1_s = 0, batchn_s = 0;
  std::size_t total_rows = 0;
  std::uint64_t campaign = 0;
  std::vector<ir::Outcome> ref(rows);
  for (int m = 0; m < modes; ++m) {
    ir::EvalConfig cfg;
    cfg.format_bits = 16;
    cfg.rounding = all_modes[m];
    for (const ir::Expr& tree : trees) {
      const ir::Tape tape = ir::Tape::compile(tree, cfg);
      campaign ^= tape.fingerprint();
      total_rows += rows;

      auto t0 = GateClock::now();
      for (std::size_t r = 0; r < rows; ++r) {
        ref[r] = ir::evaluate(tree, cfg, table.row(r));
      }
      walk_s += seconds_since(t0);

      t0 = GateClock::now();
      auto batched = ir::execute_batch(pool_one, tape, table);
      batch1_s += seconds_since(t0);
      for (std::size_t r = 0; r < rows; ++r) {
        if (ref[r].value.bits != batched[r].value.bits ||
            ref[r].flags != batched[r].flags) {
          std::fprintf(stderr,
                       "tape-gate: batched tape diverges from tree walk "
                       "(%s row %zu)\n",
                       tree.to_string().c_str(), r);
          return 2;
        }
      }

      t0 = GateClock::now();
      auto wide = ir::execute_batch(pool_many, tape, table);
      batchn_s += seconds_since(t0);
      for (std::size_t r = 0; r < rows; ++r) {
        if (batched[r].value.bits != wide[r].value.bits ||
            batched[r].flags != wide[r].flags) {
          std::fprintf(stderr,
                       "tape-gate: batched tape not thread-count invariant "
                       "(%s row %zu)\n",
                       tree.to_string().c_str(), r);
          return 2;
        }
      }
    }
  }

  std::printf(
      "tape-gate: %zu rows (%d sample(s), %d mode(s)), campaign "
      "%016llx\n",
      total_rows, samples, modes,
      static_cast<unsigned long long>(campaign));
  std::printf("  %-28s %10s %14s %9s\n", "engine", "ns/op", "ops/s",
              "vs walk");
  const auto line = [&](const char* name, double secs) {
    std::printf("  %-28s %10.1f %14.0f %8.2fx\n", name,
                secs * 1e9 / static_cast<double>(total_rows),
                static_cast<double>(total_rows) / secs, walk_s / secs);
  };
  line("tree-walk (reference)", walk_s);
  line("tape-batched x1", batch1_s);
  const std::string wide_name =
      "tape-batched x" + std::to_string(std::max(1, max_threads));
  line(wide_name.c_str(), batchn_s);
  std::printf("  parity: all runs bit- and flag-identical\n");

  // The coarse CI gate: the tape interpreter on one thread must not be
  // slower than the virtual tree walk.
  if (batch1_s > walk_s) {
    std::fprintf(stderr,
                 "tape-gate: FAIL — batched tape x1 slower than tree walk "
                 "(%.2fx)\n",
                 walk_s / batch1_s);
    return 1;
  }
  return 0;
}

/// Appends each comma-separated thread count in `spec`; returns false if
/// one is not an integer in 1..1024.
bool parse_thread_list(std::string_view spec, std::vector<int>& out) {
  while (true) {
    const std::size_t comma = spec.find(',');
    const std::string item(spec.substr(0, comma));
    std::uint64_t n = 0;
    if (!fpq::bench::parse_number(item.c_str(), 1024, n) || n == 0) {
      return false;
    }
    out.push_back(static_cast<int>(n));
    if (comma == std::string_view::npos) return true;
    spec.remove_prefix(comma + 1);
  }
}

}  // namespace

// Custom main: google-benchmark rejects flags it does not know, so
// --threads and the tape-gate options are stripped from argv before
// Initialize sees them.
int main(int argc, char** argv) {
  std::vector<char*> bench_args;
  std::vector<int> thread_counts;
  bool tape_gate = false;
  std::uint64_t gate_samples = 2;
  std::uint64_t gate_modes = 5;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool ok = true;
    if (arg == "--threads" && i + 1 < argc) {
      ok = parse_thread_list(argv[++i], thread_counts);
    } else if (arg.starts_with("--threads=")) {
      ok = parse_thread_list(arg.substr(10), thread_counts);
    } else if (arg == "--tape-gate") {
      tape_gate = true;
    } else if (arg.starts_with("--gate-samples=")) {
      ok = fpq::bench::parse_number(argv[i] + 15, 64, gate_samples) &&
           gate_samples > 0;
    } else if (arg.starts_with("--gate-modes=")) {
      ok = fpq::bench::parse_number(argv[i] + 13, 5, gate_modes) &&
           gate_modes > 0;
    } else {
      bench_args.push_back(argv[i]);
    }
    if (!ok) {
      std::fprintf(stderr, "bench_perf_softfloat: bad value in '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};

  if (tape_gate) {
    if (bench_args.size() > 1) {
      std::fprintf(stderr,
                   "bench_perf_softfloat: bad argument '%s' in --tape-gate "
                   "mode\n",
                   bench_args[1]);
      return 2;
    }
    const int max_threads =
        *std::max_element(thread_counts.begin(), thread_counts.end());
    return run_tape_gate(static_cast<int>(gate_samples),
                         static_cast<int>(gate_modes), max_threads);
  }

  for (const int t : thread_counts) {
    const std::string name =
        "BM_ExhaustiveBinary16Sweep/threads:" + std::to_string(t);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [t](benchmark::State& state) { BM_ExhaustiveBinary16Sweep(state, t); })
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
    const std::string tape_name =
        "BM_IrTapeBatchHorner64/threads:" + std::to_string(t);
    benchmark::RegisterBenchmark(tape_name.c_str(),
                                 [t](benchmark::State& state) {
                                   BM_IrTapeBatchHorner64(state, t);
                                 })
        ->UseRealTime();
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
