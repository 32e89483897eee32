// The differential verification driver: races the softfloat engine
// against the host FPU / independent references (and, for sqrt, the tape
// interpreter and the tree walk; --no-tape drops both) over a row's whole
// pattern space, sharded and checkpointed so a run can be killed and
// resumed, or time-boxed for CI slices.
//
//   bench_sweep32 [--op NAME] [--modes N] [--threads N] [--begin N]
//                 [--end N] [--chunk-bits N] [--manifest FILE]
//                 [--deadline-ms N] [--max-shards N] [--no-tape]
//                 [--no-hardware] [--corpus N] [--variant NAME]
//
// --op: a grid row, corpus (corner corpus only) or all (every row).
//       binary32 (2^32 patterns unless noted): sqrt (default),
//       round_int, to_b16, to_b64, to_bf16, from_b16 and from_bf16
//       (2^16 each).
//       binary16 against the exact references, bitwise: sqrt16 (2^16),
//       add16, sub16, mul16, div16, fma16 (every (a, b) pair, 2^32),
//       sample16 (2^32 draws).
//       host FPU, four modes: sample32, sample64 (2^32 draws).
// --modes: how many of the five rounding modes to sweep (default all 5).
// --corpus N: also run the corner corpus with N random cases per mode.
// --variant: force the batch kernel engine (scalar / portable / avx2);
//            default is the best the CPU supports. Exits 3 (and only
//            then) when a known variant is unavailable on this machine;
//            an unknown name is a bad argument. The first line printed
//            names the active variant and the thread count, so values/s
//            from different engines are never mistaken for one another.
//
// Exit codes: 0 every verified shard agreed (an interrupted run exits 0
// with "incomplete" status; rerun with the same --manifest to continue);
// 1 a lane mismatch — the sweep IS the assertion; 2 a bad argument
// (unknown flag or name, non-numeric or out-of-range number) or a sweep
// that threw (e.g. a manifest that refuses to resume); 3 the requested
// --variant is unavailable here.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/thread_pool.hpp"
#include "softfloat/kernels.hpp"

namespace sw = fpq::parallel::sweep32;
namespace sf = fpq::softfloat;

namespace {

struct Cli {
  std::string op = "sqrt";
  std::size_t modes = 5;
  std::size_t threads = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  int chunk_bits = 18;
  std::string manifest;
  std::uint64_t deadline_ms = 0;
  std::size_t max_shards = 0;
  bool tape = true;
  bool hardware = true;
  std::size_t corpus = 0;
  bool corpus_only = false;
  std::string variant;  ///< empty = best available
};

bool parse(int argc, char** argv, Cli& cli) {
  constexpr std::uint64_t kSpace = std::uint64_t{1} << 32;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    bool number_ok = true;
    auto next = [&](std::uint64_t max, std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      number_ok = fpq::bench::parse_number(argv[++i], max, out);
      return true;
    };
    std::uint64_t v = 0;
    if (a == "--op" && i + 1 < argc) {
      cli.op = argv[++i];
    } else if (a == "--modes" && next(5, v)) {
      cli.modes = static_cast<std::size_t>(v);
    } else if (a == "--threads" && next(1024, v)) {
      cli.threads = static_cast<std::size_t>(v);
    } else if (a == "--begin" && next(kSpace, v)) {
      cli.begin = v;
    } else if (a == "--end" && next(kSpace, v)) {
      cli.end = v;
    } else if (a == "--chunk-bits" && next(32, v)) {
      cli.chunk_bits = static_cast<int>(v);
    } else if (a == "--manifest" && i + 1 < argc) {
      cli.manifest = argv[++i];
    } else if (a == "--deadline-ms" && next(INT64_MAX, v)) {
      cli.deadline_ms = v;
    } else if (a == "--max-shards" && next(SIZE_MAX, v)) {
      cli.max_shards = static_cast<std::size_t>(v);
    } else if (a == "--no-tape") {
      cli.tape = false;
    } else if (a == "--no-hardware") {
      cli.hardware = false;
    } else if (a == "--corpus" && next(SIZE_MAX, v)) {
      cli.corpus = static_cast<std::size_t>(v);
    } else if (a == "--variant" && i + 1 < argc) {
      cli.variant = argv[++i];
    } else {
      std::fprintf(stderr, "bench_sweep32: bad argument '%s'\n", a.c_str());
      return false;
    }
    if (!number_ok) {
      std::fprintf(stderr, "bench_sweep32: bad number '%s' for %s\n",
                   argv[i], a.c_str());
      return false;
    }
  }
  if (cli.modes < 1 || cli.modes > 5) {
    std::fprintf(stderr, "bench_sweep32: --modes must be 1..5\n");
    return false;
  }
  return true;
}

bool op_from_name(const std::string& name, sw::SweepOp& out) {
  for (const sw::SweepOp op : sw::kAllSweepOps) {
    if (name == sw::sweep_op_name(op)) {
      out = op;
      return true;
    }
  }
  return false;
}

/// Runs one op's sweep; returns false on mismatch. With `multi` (--op
/// all) the manifest path gets a per-op suffix — each op is its own sweep
/// identity, so sharing one file would make the second op refuse to
/// resume.
bool run_op(const Cli& cli, sw::SweepOp op, bool multi = false) {
  sw::Sweep32Config config;
  config.op = op;
  // The default grid is kAllRoundings; --modes keeps its first entries.
  config.modes.resize(static_cast<std::size_t>(cli.modes));
  config.begin = cli.begin;
  config.end = cli.end;
  config.chunk_bits = cli.chunk_bits;
  config.threads = cli.threads;
  config.manifest_path = cli.manifest;
  if (multi && !config.manifest_path.empty()) {
    config.manifest_path += std::string(".") + sw::sweep_op_name(op);
  }
  config.deadline = std::chrono::milliseconds(cli.deadline_ms);
  config.max_shards = cli.max_shards;
  config.race_hardware = cli.hardware;
  config.race_tape = cli.tape;

  const auto t0 = std::chrono::steady_clock::now();
  const sw::Sweep32Report report = sw::run_sweep32(config);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double vps =
      secs > 0.0 ? static_cast<double>(report.run_checked) / secs : 0.0;
  std::printf(
      "sweep32/%-9s shards %llu/%llu done (%llu this run)  "
      "checked %llu (this run %llu, %.3g values/s)  mismatches %llu%s%s\n",
      sw::sweep_op_name(op),
      static_cast<unsigned long long>(report.done_shards),
      static_cast<unsigned long long>(report.total_shards),
      static_cast<unsigned long long>(report.run_shards),
      static_cast<unsigned long long>(report.checked),
      static_cast<unsigned long long>(report.run_checked), vps,
      static_cast<unsigned long long>(report.mismatches),
      report.deadline_expired ? "  [deadline]" : "",
      report.complete ? "  [complete]" : "  [incomplete]");
  if (report.complete) {
    std::printf("sweep32/%-9s fingerprint 0x%016llx\n",
                sw::sweep_op_name(op),
                static_cast<unsigned long long>(report.fingerprint));
  }
  for (const std::string& s : report.mismatch_samples) {
    std::printf("  MISMATCH %s\n", s.c_str());
  }
  return report.mismatches == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) return 2;

  if (!cli.variant.empty()) {
    sf::KernelVariant v{};
    if (!sf::parse_kernel_variant(cli.variant, v)) {
      std::fprintf(stderr, "bench_sweep32: unknown --variant '%s'\n",
                   cli.variant.c_str());
      return 2;
    }
    if (!sf::set_kernel_variant_override(v)) {
      std::fprintf(stderr,
                   "bench_sweep32: variant '%s' unavailable on this machine\n",
                   cli.variant.c_str());
      return 3;
    }
  }

  std::printf("sweep32: kernel variant %s, %zu thread(s)\n",
              sf::kernel_variant_name(sf::active_kernel_variant()),
              cli.threads != 0
                  ? cli.threads
                  : fpq::parallel::ThreadPool::default_thread_count());
  bool ok = true;
  try {
    if (cli.op == "corpus") {
      cli.corpus_only = true;
    } else if (cli.op == "all") {
      for (const sw::SweepOp op : sw::kAllSweepOps) {
        ok = run_op(cli, op, /*multi=*/true) && ok;
      }
    } else {
      sw::SweepOp op{};
      if (!op_from_name(cli.op, op)) {
        std::fprintf(stderr, "bench_sweep32: unknown --op '%s'\n",
                     cli.op.c_str());
        return 2;
      }
      ok = run_op(cli, op) && ok;
    }

    if (cli.corpus != 0 || cli.corpus_only) {
      const auto t0 = std::chrono::steady_clock::now();
      const sw::CorpusReport corpus = sw::run_corner_corpus(cli.corpus);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      const double vps =
          secs > 0.0 ? static_cast<double>(corpus.checked) / secs : 0.0;
      std::printf("sweep32/corpus    checked %llu (%.3g checks/s)  "
                  "mismatches %llu\n",
                  static_cast<unsigned long long>(corpus.checked), vps,
                  static_cast<unsigned long long>(corpus.mismatches));
      for (const std::string& s : corpus.mismatch_samples) {
        std::printf("  MISMATCH %s\n", s.c_str());
      }
      ok = ok && corpus.mismatches == 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_sweep32: %s\n", e.what());
    return 2;
  }

  return ok ? 0 : 1;
}
