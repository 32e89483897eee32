// fpmon overhead microbench: what does always-on flow monitoring cost?
//
// Times every healthy workloads kernel (the broken ones would trap) in
// four configurations:
//
//   * native-unmonitored — NativeContext, no monitor: the floor.
//   * flowctx-idle       — FlowContext with NO FlowMonitor live: the
//                          always-on price every caller pays for keeping
//                          the flow seam compiled in (one thread-local
//                          load per kernel call).
//   * flow-sampling      — observe_flow(): FlowContext under a
//                          sampling-mode FlowMonitor, per-op class
//                          emission into the ledger.
//   * flow-trap          — same under trap mode, when the platform can
//                          arm FE traps (healthy kernels raise none of
//                          the trapped kinds, so this measures the
//                          enable/disable + signal-path bookkeeping, not
//                          trap storms).
//
// The modes are interleaved: each round times one catalogue pass per
// mode in turn (native, idle, sampling, trap; native, idle, ...), and a
// mode's ratio in that round is its time over the same round's native
// time. So machine-speed drift that a block-per-mode timing would fold
// into one mode lands on all of them. Each mode reports the median of
// its per-round times and ratios, and the interquartile range (p25-p75)
// of the ratios: one pass is short enough that the scheduler moves a
// single round's ratio far more than the monitor does, so the extremes
// say nothing about monitor cost.
//
//   bench_fpmon [--reps N] [--budget FILE]
//
// --reps: interleaved rounds, i.e. timed catalogue passes per mode (a
// positive integer, default 200).
// --budget reads "mode max_ratio" lines ('#' starts a comment) and exits
// 1 when a mode's median ratio vs native-unmonitored exceeds its budget:
// the CI regression gate for monitoring cost. The budgets sit above the
// medians measured over repeated runs, so the gate catches a per-op
// regression, not scheduler noise.
//
// A bad --reps, an unreadable budget, or a budget line naming an unknown
// mode, carrying a non-finite or non-positive ratio, or trailing junk
// exits 2 before any timing starts.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fpmon/flow.hpp"
#include "workloads/workloads.hpp"

namespace mon = fpq::mon;
namespace wl = fpq::workloads;

namespace {

template <typename F>
double time_ns(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// The q-quantile of a nonempty xs, interpolated between order
/// statistics (q = 0.5 is the median).
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= xs.size()) return xs[lo];
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[lo + 1] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

std::vector<const wl::Workload*> healthy_workloads() {
  std::vector<const wl::Workload*> out;
  for (const wl::Workload& w : wl::catalogue()) {
    if (w.name.find("/healthy") != std::string::npos) out.push_back(&w);
  }
  return out;
}

/// The modes a budget may name: every timed mode but the floor itself.
bool budgetable_mode(const std::string& name) {
  return name == "flowctx-idle" || name == "flow-sampling" ||
         name == "flow-trap";
}

/// Reads "mode max_ratio" lines; prints the first bad line to stderr and
/// returns false on an unreadable file, an unknown mode, a ratio that is
/// not finite and positive, or anything after the ratio.
bool load_budget(const char* path, std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_fpmon: cannot read budget %s\n", path);
    return false;
  }
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string mode, ratio_text, junk;
    if (!(fields >> mode)) continue;
    double ratio = 0.0;
    if (!budgetable_mode(mode) || !(fields >> ratio_text) ||
        !fpq::bench::parse_positive(ratio_text.c_str(), ratio) ||
        (fields >> junk)) {
      std::fprintf(stderr, "bench_fpmon: bad budget line %s:%d: %s\n", path,
                   line_no, line.c_str());
      return false;
    }
    out[mode] = ratio;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 200;
  const char* budget_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--reps") == 0 && value &&
        fpq::bench::parse_number(value, SIZE_MAX, v) && v > 0) {
      reps = static_cast<std::size_t>(v);
      ++i;
    } else if (std::strcmp(arg, "--budget") == 0 && value) {
      budget_path = value;
      ++i;
    } else {
      std::fprintf(stderr, "usage: %s [--reps N>0] [--budget FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  std::map<std::string, double> budget;
  if (budget_path != nullptr && !load_budget(budget_path, budget)) return 2;

  const std::vector<const wl::Workload*> kernels = healthy_workloads();
  if (kernels.empty()) {
    std::fprintf(stderr, "no healthy workloads in catalogue\n");
    return 1;
  }

  // Warm every tape cache before timing so the first mode measured does
  // not pay one-time trace costs the later modes skip.
  {
    wl::NativeContext native;
    wl::FlowContext flow;
    for (const wl::Workload* w : kernels) {
      w->run(native);
      w->run(flow);
      (void)wl::observe_flow(*w);
    }
  }

  struct Mode {
    std::string name;
    std::function<void()> pass;  // one catalogue pass
    std::vector<double> ns;      // per round
    std::vector<double> ratio;   // per round, over that round's floor
  };
  std::vector<Mode> modes;
  auto add_mode = [&](const char* name, std::function<void()> pass) {
    modes.push_back(Mode{name, std::move(pass), {}, {}});
  };
  add_mode("native-unmonitored", [&] {
    wl::NativeContext ctx;
    for (const wl::Workload* w : kernels) w->run(ctx);
  });
  add_mode("flowctx-idle", [&] {
    wl::FlowContext ctx;
    for (const wl::Workload* w : kernels) w->run(ctx);
  });
  add_mode("flow-sampling", [&] {
    for (const wl::Workload* w : kernels) (void)wl::observe_flow(*w);
  });
  mon::FlowOptions trap_opts;
  trap_opts.mode = mon::FlowMode::kTrap;
  if (mon::trap_supported()) {
    add_mode("flow-trap", [&] {
      for (const wl::Workload* w : kernels)
        (void)wl::observe_flow(*w, trap_opts);
    });
  } else {
    std::printf(
        "flow-trap: skipped (FE traps unavailable on this platform/"
        "build)\n");
  }

  for (std::size_t round = 0; round < reps; ++round) {
    for (Mode& m : modes) m.ns.push_back(time_ns(m.pass));
    const double base = modes.front().ns.back();
    for (Mode& m : modes) {
      m.ratio.push_back(base > 0.0 ? m.ns.back() / base : 0.0);
    }
  }

  std::printf("fpmon overhead (%zu interleaved rounds x %zu healthy "
              "kernels; medians, ratio spread p25-p75)\n",
              reps, kernels.size());
  std::printf("%-20s %14s %10s %17s\n", "mode", "ns/catalogue", "ratio",
              "spread");
  for (const Mode& m : modes) {
    std::printf("%-20s %14.0f %9.2fx %7.2fx-%.2fx\n", m.name.c_str(),
                median(m.ns), median(m.ratio), quantile(m.ratio, 0.25),
                quantile(m.ratio, 0.75));
  }

  bool ok = true;
  for (const Mode& m : modes) {
    const auto it = budget.find(m.name);
    if (it == budget.end()) continue;
    const double ratio = median(m.ratio);
    if (!(ratio <= it->second)) {
      std::fprintf(stderr,
                   "GATE: fpmon mode %s overhead %.2fx exceeds"
                   " budget %.2fx\n",
                   m.name.c_str(), ratio, it->second);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
