// batch-b32: ir::execute_batch with default BatchOptions over seeded,
// distinct binding tables for seven binary32 trees (add, sub, mul, div,
// fma, sqrt and a compare). Operands come from
// sweep32::ulp_stratified_pattern, so subnormal and tiny results — the
// fast32 scalar-fallback lanes — occur. No table repeats in a run.

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "fpmon/flow.hpp"
#include "ir/batch.hpp"
#include "ir/tape.hpp"
#include "ir/tape_batch.hpp"
#include "parallel/result_cache.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/batch.hpp"

namespace perfbench {
namespace {

namespace ir = fpq::ir;
namespace sf = fpq::softfloat;
namespace sw = fpq::parallel::sweep32;

constexpr std::size_t kRows = std::size_t{1} << 16;
constexpr std::size_t kTablesPerTree = 4;
constexpr std::size_t kWidth = 3;
/// Rows re-run through the ir::evaluate tree walk per table.
constexpr std::size_t kCheckStride = 1021;

enum class Op { kAdd, kSub, kMul, kDiv, kFma, kSqrt, kLess };
constexpr Op kOps[] = {Op::kAdd, Op::kSub,  Op::kMul, Op::kDiv,
                       Op::kFma, Op::kSqrt, Op::kLess};
constexpr std::size_t kTrees = std::size(kOps);

ir::Expr tree_for(Op op) {
  const ir::Expr x = ir::Expr::variable("x", 0);
  const ir::Expr y = ir::Expr::variable("y", 1);
  const ir::Expr z = ir::Expr::variable("z", 2);
  switch (op) {
    case Op::kAdd: return ir::Expr::add(x, y);
    case Op::kSub: return ir::Expr::sub(x, y);
    case Op::kMul: return ir::Expr::mul(x, y);
    case Op::kDiv: return ir::Expr::div(x, y);
    case Op::kFma: return ir::Expr::fma(x, y, z);
    case Op::kSqrt: return ir::Expr::sqrt(x);
    case Op::kLess: return ir::Expr::cmp_lt(x, y);
  }
  return x;
}

ir::EvalConfig config32() {
  ir::EvalConfig c;
  c.format_bits = 32;
  return c;
}

double widen(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return static_cast<double>(f);
}

/// Fills `table` with kRows seeded rows; `index` names the table within
/// the run, so every table of a run is drawn from its own stream.
void fill_table(std::uint64_t seed, std::uint64_t index, ir::BindingTable& table,
                PatternClasses* classes) {
  fpq::parallel::sweep_detail::Sm64 g(derive_seed(seed, 1000 + index));
  table.width = kWidth;
  table.values.resize(kRows * kWidth);
  for (double& v : table.values) {
    const std::uint32_t bits = sw::ulp_stratified_pattern(g);
    if (classes != nullptr) classes->add(bits);
    v = widen(bits);
  }
}

/// Whether the fast32 path hands this lane to the scalar engine: a
/// non-finite operand, a zero divisor, or a nonzero result below the
/// binary32 normal range (the round_pack tiny band).
bool fallback_lane(Op op, double a, double b, double c) {
  if (!std::isfinite(a) || !std::isfinite(b) || !std::isfinite(c)) return true;
  double r = 0.0;
  switch (op) {
    case Op::kAdd: r = a + b; break;
    case Op::kSub: r = a - b; break;
    case Op::kMul: r = a * b; break;
    case Op::kDiv:
      if (b == 0.0) return true;
      r = a / b;
      break;
    case Op::kFma: r = a * b + c; break;
    default: return false;
  }
  return r != 0.0 && std::fabs(r) < 0x1p-126;
}

struct Run {
  std::unique_ptr<fpq::parallel::ThreadPool> pool;
  std::uint64_t next_table = 0;
  /// The next repetition's tables, kTablesPerTree per tree; table i runs
  /// tree kOps[i % kTrees].
  std::vector<ir::BindingTable> tables;
  PatternClasses classes;
  std::set<std::uint64_t> table_hashes;
  std::uint64_t repeated = 0;
};

/// Draws the next repetition's tables on the pool (untimed; the first set
/// is part of set-up) and records their operand classes and content
/// hashes.
void generate(const Options& o, Run& run) {
  const std::size_t n = kTablesPerTree * kTrees;
  run.tables.resize(n);
  std::vector<PatternClasses> classes(n);
  std::vector<std::uint64_t> hashes(n);
  const std::uint64_t base = run.next_table;
  run.pool->run_shards(n, [&](std::size_t i) {
    fill_table(o.seed, base + i, run.tables[i], &classes[i]);
    hashes[i] = ir::hash_bindings(run.tables[i].values, kWidth);
  });
  run.next_table += n;
  for (std::size_t i = 0; i < n; ++i) {
    run.classes.merge(classes[i]);
    run.repeated += run.table_hashes.insert(hashes[i]).second ? 0 : 1;
  }
}

/// One repetition over the pending tables: each executed by execute_batch
/// (timed) and stride-checked against the tree walk (untimed); then the
/// next repetition's tables are drawn. Returns the timed seconds. The memo
/// cache is cleared at the end so a run's memory stays bounded by one
/// repetition's entries.
double batch_rep(const Options& o, Run& run, fpq::parallel::ThreadPool& pool,
                 Checks& checks, bool monitored) {
  double busy = 0.0;
  const ir::EvalConfig cfg = config32();
  for (std::size_t i = 0; i < run.tables.size(); ++i) {
    const ir::BindingTable& table = run.tables[i];
    const ir::Expr expr = tree_for(kOps[i % kTrees]);
    std::vector<ir::Outcome> outs;
    const auto body = [&] {
      const Span span("ir.execute_batch");
      outs = ir::execute_batch(pool, *ir::Tape::cached(expr, cfg), table);
    };
    busy += timed([&] {
      if (monitored) {
        fpq::mon::FlowReport flow;
        fpq::mon::monitor_flow(body, flow, {.collect_seams = true});
      } else {
        body();
      }
    });

    const Span check_span("ir.evaluate.check");
    std::uint64_t bad = outs.size() == kRows ? 0 : 1;
    std::uint64_t checked = 1;
    const std::size_t first =
        derive_seed(o.seed, run.next_table + i) % kCheckStride;
    for (std::size_t r = first; r < kRows && outs.size() == kRows;
         r += kCheckStride) {
      const ir::Outcome want = ir::evaluate(expr, cfg, table.row(r));
      bad += (want.value.bits != outs[r].value.bits ||
              want.flags != outs[r].flags)
                 ? 1
                 : 0;
      ++checked;
    }
    checks.tally(checked, bad, "execute_batch vs tree walk");
  }
  fpq::parallel::BatchResultCache::global().clear();
  generate(o, run);
  return busy;
}

void setup(const Options& o, Run& run) {
  run = Run{};
  run.pool = std::make_unique<fpq::parallel::ThreadPool>(kPoolThreads);
  generate(o, run);
  for (std::size_t i = 0; i < kTrees; ++i) {
    ir::execute_batch(*run.pool, *ir::Tape::cached(tree_for(kOps[i]), config32()),
                      run.tables[i]);
  }
  fpq::parallel::BatchResultCache::global().clear();
}

}  // namespace

void run_batch_b32(const Options& o, Result& out) {
  Run run;
  for (int round = 0; round < kSetupRounds; ++round) {
    run.pool.reset();
    out.setup_s.push_back(timed([&] { setup(o, run); }));
  }
  out.item_name = "binding rows executed";
  out.items_per_rep = static_cast<double>(kTablesPerTree * kTrees * kRows);
  out.info("batch_options", "default");
  out.info("rows_per_table", std::to_string(kRows));

  if (o.trace) {
    repeat_for(o.seconds, 2, [&] {
      out.untraced_s.push_back(batch_rep(o, run, *run.pool, out.checks, false));
      set_tracing(true);
      {
        const Span span("batch-b32.rep");
        out.traced_s.push_back(batch_rep(o, run, *run.pool, out.checks, false));
      }
      set_tracing(false);
    });
    fpq::parallel::ThreadPool single(1);
    out.single_thread_s = batch_rep(o, run, single, out.checks, false);
  } else {
    // batch_rep returns its own timed seconds, so the pair is recorded
    // directly rather than through time_pair; the order still alternates.
    repeat_for(o.seconds, 3, [&] {
      const bool plain_first = out.plain_s.size() % 2 == 0;
      const double first = batch_rep(o, run, *run.pool, out.checks, !plain_first);
      const double second = batch_rep(o, run, *run.pool, out.checks, plain_first);
      out.plain_s.push_back(plain_first ? first : second);
      out.monitored_s.push_back(plain_first ? second : first);
      out.rep_s.push_back(out.plain_s.back());
    });
  }

  run.classes.record("batch", out);
  const auto tables = static_cast<double>(run.table_hashes.size() + run.repeated);
  out.input("batch.tables", tables);
  out.input("batch.repeated_table_share",
            static_cast<double>(run.repeated) / tables);
  out.checks.expect(run.repeated == 0, "a binding table repeated");
}

void probe_batch_layers(const Options& o, Result& out) {
  const ir::EvalConfig cfg = config32();
  std::vector<ir::BindingTable> tables(kTrees);
  for (std::size_t i = 0; i < kTrees; ++i) {
    fill_table(o.seed, 5000 + i, tables[i], nullptr);
  }

  // softfloat binary32 batch kernels on the workload's operand columns.
  const ir::BindingTable& t0 = tables[0];
  std::vector<sf::Float32> a(kRows), b(kRows), c(kRows), res(kRows);
  std::vector<unsigned> flags(kRows);
  std::uint64_t fallback = 0;
  std::uint64_t lanes = 0;
  for (std::size_t r = 0; r < kRows; ++r) {
    a[r] = sf::from_native(static_cast<float>(t0.values[r * kWidth]));
    b[r] = sf::from_native(static_cast<float>(t0.values[r * kWidth + 1]));
    c[r] = sf::from_native(static_cast<float>(t0.values[r * kWidth + 2]));
    for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kFma}) {
      fallback += fallback_lane(op, t0.values[r * kWidth],
                                t0.values[r * kWidth + 1],
                                t0.values[r * kWidth + 2])
                      ? 1
                      : 0;
      ++lanes;
    }
  }
  out.layer("softfloat.fallback_lane_share",
            static_cast<double>(fallback) / static_cast<double>(lanes), "ratio",
            true);
  std::uint64_t sink = 0;
  const auto kernel = [&](const char* name, auto&& call) {
    std::vector<double> ts;
    for (int r = 0; r < 5; ++r) {
      sf::Env env;
      ts.push_back(timed([&] { call(env); }));
      sink += res[kRows / 2].bits;
    }
    out.layer(std::string("softfloat.") + name + "_n32.ns_per_value",
              1e9 * median(ts) / static_cast<double>(kRows), "ns");
  };
  kernel("add", [&](sf::Env& e) {
    sf::add_n<32>(a.data(), b.data(), res.data(), flags.data(), kRows, e);
  });
  kernel("sub", [&](sf::Env& e) {
    sf::sub_n<32>(a.data(), b.data(), res.data(), flags.data(), kRows, e);
  });
  kernel("mul", [&](sf::Env& e) {
    sf::mul_n<32>(a.data(), b.data(), res.data(), flags.data(), kRows, e);
  });
  kernel("div", [&](sf::Env& e) {
    sf::div_n<32>(a.data(), b.data(), res.data(), flags.data(), kRows, e);
  });
  kernel("fma", [&](sf::Env& e) {
    sf::fma_n<32>(a.data(), b.data(), c.data(), res.data(), flags.data(), kRows,
                  e);
  });

  // execute_batch on a 1-lane pool, default options; the memo cache is
  // cleared before each pass so every pass executes.
  {
    fpq::parallel::ThreadPool single(1);
    std::vector<double> ts;
    for (int r = 0; r < 3; ++r) {
      fpq::parallel::BatchResultCache::global().clear();
      ts.push_back(timed([&] {
        for (std::size_t i = 0; i < kTrees; ++i) {
          const auto outs = ir::execute_batch(
              single, *ir::Tape::cached(tree_for(kOps[i]), cfg), tables[i]);
          sink += outs[kRows / 2].value.bits;
        }
      }));
    }
    out.layer("ir.execute_batch.ns_per_row",
              1e9 * median(ts) / static_cast<double>(kTrees * kRows), "ns");
  }

  // Memo cache occupancy after one pass over fresh tables on the pool.
  {
    fpq::parallel::ThreadPool pool(kPoolThreads);
    auto& cache = fpq::parallel::BatchResultCache::global();
    cache.clear();
    for (std::size_t i = 0; i < kTrees; ++i) {
      ir::execute_batch(pool, *ir::Tape::cached(tree_for(kOps[i]), cfg),
                        tables[i]);
    }
    const auto st = cache.stats();
    cache.clear();
    const auto entries = static_cast<double>(st.entries);
    const auto hits = static_cast<double>(st.hits);
    const auto misses = static_cast<double>(st.misses);
    const double bytes = static_cast<double>(kTrees * kRows) *
                             sizeof(std::pair<std::uint64_t, unsigned>) +
                         entries * (sizeof(fpq::parallel::BatchKey) +
                                    sizeof(fpq::parallel::BatchChunkResult));
    out.layer("parallel.batch_result_cache.entries", entries, "count");
    out.layer("parallel.batch_result_cache.hits", hits, "count");
    out.layer("parallel.batch_result_cache.misses", misses, "count");
    out.layer("parallel.batch_result_cache.bytes", bytes, "bytes", true);
  }

  // Tape compile cost, and the compile memo over one repetition's lookups
  // (one Tape::cached call per table) from a cold memo.
  {
    std::vector<double> ts;
    for (int r = 0; r < 5; ++r) {
      ts.push_back(timed([&] {
        for (const Op op : kOps) {
          sink += ir::Tape::compile(tree_for(op), cfg).code().size();
        }
      }));
    }
    out.layer("ir.compile.us_per_tape",
              1e6 * median(ts) / static_cast<double>(kTrees), "us");
    ir::Tape::clear_cache();
    const auto before = ir::Tape::cache_stats();
    for (std::size_t t = 0; t < kTablesPerTree; ++t) {
      for (const Op op : kOps) sink += ir::Tape::cached(tree_for(op), cfg)->code().size();
    }
    const auto after = ir::Tape::cache_stats();
    out.layer("ir.tape_cache.hits", static_cast<double>(after.hits - before.hits),
              "count");
    out.layer("ir.tape_cache.misses",
              static_cast<double>(after.misses - before.misses), "count");
  }
  if (sink == 0x5eedULL) std::puts("");  // keep the probed results live
}

}  // namespace perfbench
