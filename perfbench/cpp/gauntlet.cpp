// gauntlet: one inject::run_gauntlet campaign per repetition (seeded,
// fixed trial count), then every workloads::catalogue() entry at full
// scale under workloads::observe and workloads::observe_flow — the
// monitor-overhead pair.

#include <memory>
#include <vector>

#include "analyze/shadow.hpp"
#include "common.hpp"
#include "fpmon/flow.hpp"
#include "fpmon/monitor.hpp"
#include "inject/context.hpp"
#include "inject/fault.hpp"
#include "inject/gauntlet.hpp"
#include "interval/interval.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace inj = fpq::inject;
namespace wl = fpq::workloads;
namespace mon = fpq::mon;

constexpr std::size_t kTrials = 6;

inj::GauntletConfig campaign_config(std::uint64_t seed) {
  inj::GauntletConfig cfg;
  cfg.seed = derive_seed(seed, 3000);
  cfg.trials = kTrials;
  return cfg;
}

/// Runs one campaign and checks it: no softfloat/native parity mismatch,
/// every probe contract holds. Returns its fingerprint.
std::uint64_t campaign(fpq::parallel::ThreadPool& pool, std::uint64_t seed,
                       Checks& checks, inj::GauntletResult* keep = nullptr) {
  inj::GauntletResult res;
  {
    const Span span("inject.run_gauntlet");
    res = inj::run_gauntlet(pool, campaign_config(seed));
  }
  checks.tally(res.total_trials / inj::kSubstrateCount,
               res.parity_mismatches.size(), "gauntlet parity mismatches");
  std::uint64_t broken = 0;
  for (const inj::ContractRow& row : res.contracts) broken += row.holds ? 0 : 1;
  checks.tally(res.contracts.size(), broken, "gauntlet probe contracts");
  const std::uint64_t fp = res.fingerprint;
  if (keep != nullptr) *keep = std::move(res);
  return fp;
}

/// Catalogue passes per monitor-pair sample (one full-scale pass takes
/// only milliseconds).
constexpr int kCataloguePasses = 8;

/// Full-scale catalogue under observe (plain) or observe_flow; each
/// run's observed conditions must meet the workload's contract.
void catalogue_pass(bool flow, Checks& checks) {
  for (int pass = 0; pass < kCataloguePasses; ++pass) {
    for (const wl::Workload& w : wl::catalogue()) {
      const mon::ConditionSet seen =
          flow ? wl::observe_flow(w).conditions : wl::observe(w);
      checks.expect(wl::contract_holds(w, seen),
                    std::string("catalogue contract ") + w.name +
                        (flow ? " (flow)" : ""));
    }
  }
}

}  // namespace

void run_gauntlet(const Options& o, Result& out) {
  std::unique_ptr<fpq::parallel::ThreadPool> pool;
  for (int round = 0; round < kSetupRounds; ++round) {
    pool.reset();
    out.setup_s.push_back(timed([&] {
      pool = std::make_unique<fpq::parallel::ThreadPool>(kPoolThreads);
      // Warm-up: one single-trial campaign at the run's seed (pool start,
      // catalogue, detector and tape warm-up).
      inj::GauntletConfig warm = campaign_config(o.seed);
      warm.trials = 1;
      inj::run_gauntlet(*pool, warm);
    }));
  }
  out.item_name = "substrate trial runs";
  const std::size_t catalogue_size = wl::catalogue().size();
  out.items_per_rep = static_cast<double>(catalogue_size * inj::kFaultClassCount *
                                          kTrials * inj::kSubstrateCount);
  out.input("gauntlet.catalogue_workloads", static_cast<double>(catalogue_size));
  out.input("gauntlet.trials_per_cell", static_cast<double>(kTrials));
  out.info("detectors", "fpmon,shadow,interval,fpmon-flow");

  std::vector<std::uint64_t> fps;
  if (o.trace) {
    repeat_for(o.seconds, 2, [&] {
      out.untraced_s.push_back(
          timed([&] { fps.push_back(campaign(*pool, o.seed, out.checks)); }));
      set_tracing(true);
      out.traced_s.push_back(timed([&] {
        const Span span("gauntlet.rep");
        fps.push_back(campaign(*pool, o.seed, out.checks));
      }));
      set_tracing(false);
    });
  } else {
    repeat_for(o.seconds, 3, [&] {
      out.rep_s.push_back(
          timed([&] { fps.push_back(campaign(*pool, o.seed, out.checks)); }));
      time_pair(
          out, [&] { catalogue_pass(false, out.checks); },
          [&] { catalogue_pass(true, out.checks); });
    });
  }

  check_fingerprints(
      o, out, fps,
      [&] {
        fpq::parallel::ThreadPool single(1);
        return campaign(single, o.seed, out.checks);
      },
      "gauntlet campaign");
}

void probe_gauntlet_layers(const Options& o, Result& out) {
  const auto cat = wl::catalogue();
  const double per = static_cast<double>(cat.size());
  const auto mean_probe_us = [&](auto&& run_one) {
    std::vector<double> ts;
    for (int r = 0; r < 5; ++r) {
      ts.push_back(timed([&] {
        for (const wl::Workload& w : cat) run_one(w);
      }));
    }
    return 1e6 * median(ts) / per;
  };

  out.layer("workloads.probe_native.us", mean_probe_us([](const wl::Workload& w) {
              wl::NativeContext ctx;
              w.probe(ctx);
            }),
            "us");
  out.layer("inject.probe_soft.us", mean_probe_us([](const wl::Workload& w) {
              inj::SoftContext ctx;
              w.probe(ctx);
            }),
            "us");
  std::uint64_t call = 0;
  out.layer("inject.probe_injected.us",
            mean_probe_us([&](const wl::Workload& w) {
              inj::CampaignConfig cc;
              cc.seed = derive_seed(o.seed, 3100 + call++);
              cc.fault_class = inj::FaultClass::kPoison;
              cc.rate = 0.02;
              inj::Injector injector(cc);
              inj::SoftInjectingContext ctx(injector);
              w.probe(ctx);
            }),
            "us");
  out.layer("fpmon.monitor_region.us", mean_probe_us([](const wl::Workload& w) {
              wl::NativeContext ctx;
              mon::ConditionSet seen;
              mon::monitor_region([&] { w.probe(ctx); }, seen);
            }),
            "us");
  out.layer("fpmon.monitor_flow.us", mean_probe_us([](const wl::Workload& w) {
              wl::FlowContext ctx;
              mon::FlowReport flow;
              mon::monitor_flow([&] { w.probe(ctx); }, flow);
            }),
            "us");

  // The detectors, on every call the catalogue probes make.
  std::vector<inj::CallRecord> calls;
  for (const wl::Workload& w : cat) {
    inj::SoftContext soft;
    inj::RecordingContext rec(soft);
    w.probe(rec);
    calls.insert(calls.end(), rec.records().begin(), rec.records().end());
  }
  const inj::GauntletConfig gcfg = campaign_config(o.seed);
  fpq::shadow::Config scfg;
  scfg.precision = gcfg.shadow_precision;
  double sink = 0.0;
  std::vector<double> ts;
  for (int r = 0; r < 3; ++r) {
    ts.push_back(timed([&] {
      for (const inj::CallRecord& c : calls) {
        sink += fpq::shadow::analyze(c.expr, scfg, c.bindings).shadow_result;
      }
    }));
  }
  const double n_calls = static_cast<double>(calls.size());
  out.layer("analyze.shadow.us_per_call", 1e6 * median(ts) / n_calls, "us");
  ts.clear();
  for (int r = 0; r < 3; ++r) {
    ts.push_back(timed([&] {
      for (const inj::CallRecord& c : calls) {
        sink += fpq::interval::evaluate(c.expr, c.bindings).relative_width();
      }
    }));
  }
  out.layer("interval.evaluate.us_per_call", 1e6 * median(ts) / n_calls, "us");

  // Fault effectiveness of one campaign at the run's seed.
  fpq::parallel::ThreadPool pool(kPoolThreads);
  inj::GauntletResult res;
  campaign(pool, o.seed, out.checks, &res);
  out.layer("inject.total_sites", static_cast<double>(res.total_sites), "count",
            true);
  out.layer("inject.total_effective", static_cast<double>(res.total_effective),
            "count", true);
  out.layer("inject.effective_site_ratio",
            static_cast<double>(res.total_effective) /
                static_cast<double>(res.total_sites),
            "ratio", true);
  if (sink == 0.5) std::puts("");  // keep the probed results live
}

}  // namespace perfbench
