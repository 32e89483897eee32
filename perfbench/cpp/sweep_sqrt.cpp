// sweep-sqrt: parallel::sweep32::run_sweep32 on binary32 sqrt with its
// default lanes (soft kernel, hardware reference, tape race), all five
// rounding modes, a checkpoint manifest, over seeded shard-aligned
// windows — one window in each eighth of the 2^32 pattern space, so the
// encoding classes appear in their natural proportions.

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "fpmon/flow.hpp"
#include "ir/tape.hpp"
#include "ir/tape_batch.hpp"
#include "parallel/sweep32.hpp"
#include "parallel/sweep32_ref.hpp"
#include "softfloat/batch.hpp"

namespace perfbench {
namespace {

namespace sw = fpq::parallel::sweep32;
namespace sf = fpq::softfloat;

// 2^10-pattern shards: 2560 shards per window (all modes), so work stealing
// evens out a lane that the host preempts instead of the window waiting
// on it, and run_chunk's per-shard buffers stay small enough to be reused
// from the allocator's free lists rather than mapped and faulted in anew
// (see parallel.sweep32.minor_faults_per_shard_2p16).
constexpr int kChunkBits = 10;
// One mid-window checkpoint and the final write per window.
constexpr std::size_t kCheckpointInterval = 2048;
// Set-up warms the first half of every window, all modes. Each window is
// its own run_sweep32 call, with its own pool start and manifest writes;
// halves long enough that set-up time is mostly sweeping, not those fixed
// costs, keep it from swinging with the host's scheduling delays.
constexpr std::uint64_t kWarmup = std::uint64_t{1} << 18;
// Windows of 2^19 patterns: a window's fixed costs are a small share of
// its time.
constexpr std::uint64_t kWindow = std::uint64_t{1} << 19;
constexpr std::size_t kWindows = 8;
constexpr std::uint64_t kStratum = (std::uint64_t{1} << 32) / kWindows;
constexpr std::size_t kModes = 5;

std::vector<std::uint64_t> pick_windows(std::uint64_t seed) {
  std::vector<std::uint64_t> w;
  const std::uint64_t slots = kStratum / kWindow;
  for (std::size_t i = 0; i < kWindows; ++i) {
    w.push_back(i * kStratum + (derive_seed(seed, 100 + i) % slots) * kWindow);
  }
  return w;
}

struct Lanes {
  bool tape = true;
  bool hardware = true;
};

/// Sweeps every window once (a fresh manifest per window) and returns the
/// combined fingerprint; lane mismatches and incomplete windows count as
/// failed checks. With `window_s`, appends window i's wall time to
/// (*window_s)[i].
std::uint64_t sweep_windows(const std::vector<std::uint64_t>& windows,
                            const std::string& manifest, std::size_t threads,
                            Checks& checks, Lanes lanes = {},
                            std::vector<std::vector<double>>* window_s = nullptr) {
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::uint64_t begin = windows[i];
    const auto t0 = Clock::now();
    std::remove(manifest.c_str());
    sw::Sweep32Config cfg;
    cfg.op = sw::UnaryOp32::kSqrt;
    cfg.begin = begin;
    cfg.end = begin + kWindow;
    cfg.chunk_bits = kChunkBits;
    cfg.checkpoint_interval = kCheckpointInterval;
    cfg.threads = threads;
    cfg.manifest_path = manifest;
    cfg.race_tape = lanes.tape;
    cfg.race_hardware = lanes.hardware;
    sw::Sweep32Report rep;
    {
      const Span span("parallel.sweep32.run_sweep32");
      rep = sw::run_sweep32(cfg);
    }
    if (window_s != nullptr) (*window_s)[i].push_back(since(t0));
    checks.tally(rep.checked, rep.mismatches, "sweep32 lane mismatches");
    checks.expect(rep.complete && rep.checked == kModes * kWindow,
                  "sweep32 window incomplete");
    fp = fold_fp(fp, rep.fingerprint);
  }
  std::remove(manifest.c_str());
  return fp;
}

std::string manifest_path(const Options& o, const char* tag) {
  return o.tmp_dir + "/sweep-" + std::to_string(o.seed) + "-" + tag +
         ".manifest";
}

void record_classes(const std::vector<std::uint64_t>& windows, Result& out) {
  PatternClasses classes;
  for (const std::uint64_t begin : windows) {
    for (std::uint64_t p = begin; p < begin + kWindow; ++p) {
      classes.add(static_cast<std::uint32_t>(p));
    }
  }
  classes.record("sweep", out);
  out.input("sweep.patterns", static_cast<double>(classes.total));
  std::string list = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s\"0x%08llx\"", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(windows[i]));
    list += buf;
  }
  out.inputs.emplace_back("sweep.windows", list + "]");
}

}  // namespace

void run_sweep_sqrt(const Options& o, Result& out) {
  std::vector<std::uint64_t> windows;
  const std::string manifest = manifest_path(o, "run");
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    windows = pick_windows(o.seed);
    // Warm-up: pool start, kernel dispatch, tape compile and manifest
    // writes on the first kWarmup patterns of every window, all modes.
    for (const std::uint64_t begin : windows) {
      std::remove(manifest.c_str());
      sw::Sweep32Config cfg;
      cfg.begin = begin;
      cfg.end = begin + kWarmup;
      cfg.chunk_bits = kChunkBits;
      cfg.checkpoint_interval = kCheckpointInterval;
      cfg.threads = kPoolThreads;
      cfg.manifest_path = manifest;
      const sw::Sweep32Report rep = sw::run_sweep32(cfg);
      out.checks.expect(rep.mismatches == 0 && rep.complete,
                        "sweep32 warm-up");
    }
    std::remove(manifest.c_str());
    out.setup_s.push_back(since(t0));
  }
  record_classes(windows, out);
  out.item_name = "(pattern, mode) pairs verified";
  out.items_per_rep = static_cast<double>(kWindows * kWindow * kModes);
  out.info("lanes_raced", "kernel,hardware,tape");
  out.info("sweep_chunk_bits", std::to_string(kChunkBits));

  std::vector<std::uint64_t> fps;
  const auto rep = [&] {
    return sweep_windows(windows, manifest, kPoolThreads, out.checks);
  };
  if (o.trace) {
    repeat_for(o.seconds, 2, [&] {
      out.untraced_s.push_back(timed([&] { fps.push_back(rep()); }));
      set_tracing(true);
      out.traced_s.push_back(timed([&] {
        const Span span("sweep-sqrt.rep");
        fps.push_back(rep());
      }));
      set_tracing(false);
    });
  } else {
    out.part_s.resize(windows.size());
    repeat_for(o.seconds, 3, [&] {
      time_pair(
          out,
          [&] {
            fps.push_back(sweep_windows(windows, manifest, kPoolThreads,
                                        out.checks, {}, &out.part_s));
          },
          [&] {
            fpq::mon::FlowReport flow;
            fpq::mon::monitor_flow([&] { fps.push_back(rep()); }, flow,
                                   {.collect_seams = true});
          });
      out.rep_s.push_back(out.plain_s.back());
    });
  }

  check_fingerprints(
      o, out, fps,
      [&] { return sweep_windows(windows, manifest, 1, out.checks); },
      "sweep");
}

void probe_sweep_layers(const Options& o, Result& out) {
  const std::vector<std::uint64_t> windows = pick_windows(o.seed);
  // Direct calls on the first 2^16 patterns of every window.
  constexpr std::uint64_t kSample = std::uint64_t{1} << 16;
  std::vector<sf::Float32> in;
  for (const std::uint64_t begin : windows) {
    for (std::uint64_t p = begin; p < begin + kSample; ++p) {
      in.push_back(sf::Float32{static_cast<std::uint32_t>(p)});
    }
  }
  const std::size_t n = in.size();
  const double values = static_cast<double>(n * kModes);
  std::vector<sf::Float32> res(n);
  std::vector<unsigned> flags(n);
  std::vector<double> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i] = sf::to_native(sw::ref_widen64(in[i]));
  }
  std::vector<fpq::ir::Tape> tapes;
  const fpq::ir::Expr sqrt_x =
      fpq::ir::Expr::sqrt(fpq::ir::Expr::variable("x", 0));
  for (const sf::Rounding mode : fpq::parallel::kAllRoundings) {
    fpq::ir::EvalConfig ec;
    ec.format_bits = 32;
    ec.rounding = mode;
    tapes.push_back(fpq::ir::Tape::compile(sqrt_x, ec));
  }
  std::vector<fpq::ir::Outcome> outs(n);
  std::uint64_t sink = 0;

  std::vector<double> t_kernel, t_ref, t_rows, t_scalar;
  for (int r = 0; r < 3; ++r) {
    t_kernel.push_back(timed([&] {
      for (const sf::Rounding mode : fpq::parallel::kAllRoundings) {
        sf::Env env(mode);
        sf::sqrt_n<32>(in.data(), res.data(), flags.data(), n, env);
        sink += res[n / 2].bits;
      }
    }));
    t_ref.push_back(timed([&] {
      for (const sf::Rounding mode : fpq::parallel::kAllRoundings) {
        for (const sf::Float32 x : in) sink += sw::ref_sqrt(x, mode).bits;
      }
    }));
    t_rows.push_back(timed([&] {
      for (const fpq::ir::Tape& tape : tapes) {
        fpq::ir::execute_rows(tape, rows, 1, outs);
        sink += outs[n / 2].value.bits;
      }
    }));
    t_scalar.push_back(timed([&] {
      for (const fpq::ir::Tape& tape : tapes) {
        for (std::size_t i = 0; i < n; i += 64) {
          sink += fpq::ir::execute(tape, std::span<const double>(&rows[i], 1))
                      .value.bits;
        }
      }
    }));
  }
  const double scalar_rows = static_cast<double>(kModes * ((n + 63) / 64));
  const double kernel_ns = 1e9 * median(t_kernel) / values;
  const double ref_ns = 1e9 * median(t_ref) / values;
  const double rows_ns = 1e9 * median(t_rows) / values;
  const double scalar_ns = 1e9 * median(t_scalar) / scalar_rows;
  out.layer("softfloat.sqrt_n32.ns_per_value", kernel_ns, "ns");
  out.layer("parallel.sweep32_ref.ref_sqrt.ns_per_value", ref_ns, "ns");
  out.layer("ir.execute_rows.ns_per_row", rows_ns, "ns");
  out.layer("ir.execute.ns_per_row", scalar_ns, "ns");

  // Lane shares: the same windows re-swept with one lane switched off,
  // alternating configurations, medians of three.
  const std::vector<std::uint64_t> half = {windows[0], windows[2], windows[4],
                                           windows[6]};
  const std::string manifest = manifest_path(o, "probe");
  Checks lane_checks;
  std::vector<double> t_all, t_no_tape, t_no_hw;
  for (int r = 0; r < 3; ++r) {
    t_all.push_back(timed([&] {
      sweep_windows(half, manifest, kPoolThreads, lane_checks);
    }));
    t_no_tape.push_back(timed([&] {
      sweep_windows(half, manifest, kPoolThreads, lane_checks,
                    {.tape = false, .hardware = true});
    }));
    t_no_hw.push_back(timed([&] {
      sweep_windows(half, manifest, kPoolThreads, lane_checks,
                    {.tape = true, .hardware = false});
    }));
  }
  out.checks.tally(lane_checks.attempted(), lane_checks.failed(),
                   "sweep lane-share probe");
  const double all = median(t_all);
  const double tape_share = (all - median(t_no_tape)) / all;
  const double hw_share = (all - median(t_no_hw)) / all;
  out.layer("parallel.sweep32.tape_lane_share", tape_share, "ratio");
  out.layer("parallel.sweep32.hardware_lane_share", hw_share, "ratio");

  // Manifest I/O: one window's manifest size times its rewrites (every
  // checkpoint_interval completions plus the final write), over a rep.
  {
    std::remove(manifest.c_str());
    sw::Sweep32Config cfg;
    cfg.begin = windows[0];
    cfg.end = windows[0] + kWindow;
    cfg.chunk_bits = kChunkBits;
    cfg.checkpoint_interval = kCheckpointInterval;
    cfg.threads = kPoolThreads;
    cfg.manifest_path = manifest;
    cfg.race_tape = false;
    cfg.race_hardware = false;
    sw::run_sweep32(cfg);
    struct stat st{};
    const double size =
        ::stat(manifest.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
    std::remove(manifest.c_str());
    const std::uint64_t shards = sw::sweep32_shard_count(cfg);
    const double writes =
        static_cast<double>(shards / cfg.checkpoint_interval + 1);
    out.layer("parallel.sweep32.manifest_bytes_written",
              size * writes * static_cast<double>(kWindows), "bytes", true);
  }

  // Page faults per shard on 2^16-pattern shards: run_chunk allocates its
  // buffers afresh for every shard, and at that size the allocator maps
  // and unmaps them, faulting every page back in (unless earlier large
  // frees in this process raised glibc's mmap threshold). The workload's
  // own 2^10-pattern shards stay below that; this counts what larger
  // shards pay, default lanes, one window.
  {
    std::remove(manifest.c_str());
    sw::Sweep32Config cfg;
    cfg.begin = windows[0];
    cfg.end = windows[0] + kWindow;
    cfg.chunk_bits = 16;
    cfg.threads = kPoolThreads;
    cfg.manifest_path = manifest;
    sw::run_sweep32(cfg);  // warm: pool stacks, allocator arenas
    std::remove(manifest.c_str());
    const std::uint64_t before = minor_faults();
    const sw::Sweep32Report rep = sw::run_sweep32(cfg);
    const std::uint64_t faults = minor_faults() - before;
    std::remove(manifest.c_str());
    out.checks.expect(rep.complete && rep.mismatches == 0,
                      "sweep32 2^16-shard fault probe");
    out.layer("parallel.sweep32.minor_faults_per_shard_2p16",
              static_cast<double>(faults) /
                  static_cast<double>(sw::sweep32_shard_count(cfg)),
              "count");
  }

  // Residual: lane CPU time not explained by the directly timed kernel,
  // reference and tape calls (compare, conversions, scheduling, I/O).
  const double explained_ns = kernel_ns + ref_ns + rows_ns + scalar_ns / 64.0;
  const double lane_ns_per_value =
      1e9 * all * static_cast<double>(kPoolThreads) /
      static_cast<double>(half.size() * kWindow * kModes);
  out.layer("parallel.sweep32.residual_share",
            1.0 - explained_ns / lane_ns_per_value, "ratio", true);
  if (sink == 0x5eedULL) std::puts("");  // keep the probed results live
}

}  // namespace perfbench
