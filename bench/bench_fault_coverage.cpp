// The detector gauntlet (§V's monitoring question turned adversarial):
// every workloads kernel runs under every fault class of fpq::inject — on
// BOTH arithmetic substrates, the softfloat engine and the host FPU — and
// every detector fpqual ships is scored on whether it noticed. Prints the
// per-substrate detection-coverage matrices, the probe contract table,
// the cross-substrate parity verdict, the list of faults nobody caught
// and where the campaign's time went (baseline and trial phases, and the
// probe runs and each detector summed over shards).
//
//   bench_fault_coverage [--seed N] [--trials N] [--threads N]
//                        [--baseline FILE] [--matrix-out FILE]
//
// Exits nonzero if any fault class is all-miss on either substrate (a
// detector blind spot the suite promises not to have), a probe breaks its
// exception contract, any campaign's softfloat and native fingerprints
// disagree, or — with --baseline — an effective fault went undetected
// that is not in the checked-in baseline list (a detection regression).
// --matrix-out writes the full coverage matrix as JSON for archival.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "inject/gauntlet.hpp"
#include "parallel/thread_pool.hpp"

namespace inj = fpq::inject;

namespace {

// One undetected fault as a stable one-line key, the currency of the
// baseline file: "workload substrate class trial".
std::string miss_key(const inj::MissRecord& m) {
  std::ostringstream os;
  os << m.workload << ' ' << inj::substrate_name(m.substrate) << ' '
     << inj::fault_class_name(m.fault_class) << ' ' << m.trial;
  return os.str();
}

bool load_baseline(const char* path, std::set<std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() != '#') out.insert(line);
  }
  return true;
}

bool write_matrix_json(const char* path, const inj::GauntletResult& r) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  out << "  \"seed\": " << r.config.seed << ",\n";
  out << "  \"trials\": " << r.config.trials << ",\n";
  out << "  \"fingerprint\": \"" << std::hex << r.fingerprint << std::dec
      << "\",\n";
  out << "  \"total_trials\": " << r.total_trials << ",\n";
  out << "  \"total_sites\": " << r.total_sites << ",\n";
  out << "  \"total_effective\": " << r.total_effective << ",\n";
  out << "  \"parity_mismatches\": " << r.parity_mismatches.size()
      << ",\n";
  out << "  \"capabilities\": {\"tracks_denormals\": "
      << (r.tracks_denormals ? "true" : "false")
      << ", \"trap_available\": "
      << (r.trap_available ? "true" : "false") << "},\n";
  out << "  \"flow\": {\n";
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    const inj::FlowScore& fs = r.flow_scores[s];
    out << "    \"" << inj::substrate_name(static_cast<inj::Substrate>(s))
        << "\": {\"poison_attributed\": " << fs.poison_attributed
        << ", \"poison_effective\": " << fs.poison_effective
        << ", \"swallow_attributed\": " << fs.swallow_attributed
        << ", \"swallow_effective\": " << fs.swallow_effective
        << ", \"control_trials\": " << fs.control_trials
        << ", \"control_anomalies\": " << fs.control_anomalies << "}"
        << (s + 1 < inj::kSubstrateCount ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"matrix\": {\n";
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    out << "    \"" << inj::substrate_name(static_cast<inj::Substrate>(s))
        << "\": {\n";
    for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
      out << "      \""
          << inj::fault_class_name(static_cast<inj::FaultClass>(c))
          << "\": {\n";
      for (std::size_t d = 0; d < inj::kDetectorCount; ++d) {
        const inj::CellStats& cell = r.cells[s][c][d];
        out << "        \""
            << inj::detector_name(static_cast<inj::Detector>(d))
            << "\": {\"trials\": " << cell.trials
            << ", \"hits\": " << cell.hits
            << ", \"misses\": " << cell.misses
            << ", \"false_positives\": " << cell.false_positives
            << ", \"controls\": " << cell.controls << "}"
            << (d + 1 < inj::kDetectorCount ? "," : "") << "\n";
      }
      out << "      }" << (c + 1 < inj::kFaultClassCount ? "," : "")
          << "\n";
    }
    out << "    }" << (s + 1 < inj::kSubstrateCount ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"undetected\": [\n";
  for (std::size_t i = 0; i < r.undetected.size(); ++i) {
    out << "    \"" << miss_key(r.undetected[i]) << "\""
        << (i + 1 < r.undetected.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  inj::GauntletConfig config;
  std::size_t threads = 0;  // 0 = hardware concurrency
  const char* baseline_path = nullptr;
  const char* matrix_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--seed") == 0 && value) {
      config.seed = std::strtoull(value, nullptr, 0);
      ++i;
    } else if (std::strcmp(arg, "--trials") == 0 && value) {
      config.trials = std::strtoull(value, nullptr, 0);
      ++i;
    } else if (std::strcmp(arg, "--threads") == 0 && value) {
      threads = std::strtoull(value, nullptr, 0);
      ++i;
    } else if (std::strcmp(arg, "--baseline") == 0 && value) {
      baseline_path = value;
      ++i;
    } else if (std::strcmp(arg, "--matrix-out") == 0 && value) {
      matrix_path = value;
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--trials N] [--threads N]"
                   " [--baseline FILE] [--matrix-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  fpq::parallel::ThreadPool pool(threads);
  const inj::GauntletResult result = inj::run_gauntlet(pool, config);
  std::fputs(inj::render(result).c_str(), stdout);
  const inj::PhaseSeconds& t = result.phase_seconds;
  std::printf(
      "phase split: baseline %.3f s, trials %.3f s wall; summed over "
      "shards: probes %.3f s, shadow %.3f s, interval %.3f s, flow %.3f s\n",
      t.baseline_wall, t.trials_wall, t.probes, t.shadow, t.interval,
      t.flow);

  bool ok = true;
  for (std::size_t c = 0; c < inj::kFaultClassCount; ++c) {
    const auto cls = static_cast<inj::FaultClass>(c);
    if (!result.class_covered(cls)) {
      std::fprintf(stderr, "GATE: fault class %s is all-miss\n",
                   inj::fault_class_name(cls).c_str());
      ok = false;
    }
  }
  for (const auto& row : result.contracts) {
    if (!row.holds) {
      std::fprintf(stderr, "GATE: probe contract broken: %s [%s]\n",
                   row.workload.c_str(),
                   inj::substrate_name(row.substrate).c_str());
      ok = false;
    }
  }
  if (!result.parity_mismatches.empty()) {
    std::fprintf(stderr,
                 "GATE: %zu campaigns diverged across substrates\n",
                 result.parity_mismatches.size());
    ok = false;
  }
  for (std::size_t s = 0; s < inj::kSubstrateCount; ++s) {
    const inj::FlowScore& fs = result.flow_scores[s];
    const std::string sub =
        inj::substrate_name(static_cast<inj::Substrate>(s));
    // The flow ledger must attribute ≥90% of effective poison faults to
    // the exact birth site; anything lower means the signature diff is
    // misfiring on sites the fault never touched.
    if (fs.poison_effective > 0 &&
        fs.poison_attributed * 10 < fs.poison_effective * 9) {
      std::fprintf(stderr,
                   "GATE: fpmon-flow poison attribution %zu/%zu < 90%%"
                   " on %s\n",
                   fs.poison_attributed, fs.poison_effective, sub.c_str());
      ok = false;
    }
    // Controls are bit-identical to the clean baseline, so any anomalous
    // site the ledger reports on one is a false birth — zero tolerance.
    if (fs.control_anomalies != 0) {
      std::fprintf(stderr,
                   "GATE: fpmon-flow reported %zu anomalies on %zu"
                   " control trials on %s\n",
                   fs.control_anomalies, fs.control_trials, sub.c_str());
      ok = false;
    }
  }

  if (baseline_path != nullptr) {
    std::set<std::string> baseline;
    if (!load_baseline(baseline_path, baseline)) {
      std::fprintf(stderr, "GATE: cannot read baseline %s\n",
                   baseline_path);
      ok = false;
    } else {
      for (const inj::MissRecord& m : result.undetected) {
        const std::string key = miss_key(m);
        if (baseline.count(key) == 0) {
          std::fprintf(stderr,
                       "GATE: undetected fault not in baseline: %s\n",
                       key.c_str());
          ok = false;
        }
      }
    }
  }

  if (matrix_path != nullptr && !write_matrix_json(matrix_path, result)) {
    std::fprintf(stderr, "GATE: cannot write matrix JSON %s\n",
                 matrix_path);
    ok = false;
  }

  return ok ? 0 : 1;
}
