// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out FILE [--spans FILE] [--tmp DIR] [--pin HEX]
//
// Runs one workload (sweep-sqrt, batch-b32, survey-stream, gauntlet) in
// this process and writes its raw record — set-up samples, timed
// repetitions, paired monitor samples, correctness counts, seeded input
// properties and, with --trace 1, the per-layer figures — as JSON to
// --out. perfbench/run.py builds this program, runs it and turns the
// record into the benchmark's metrics. Exit status: 0 when the run
// completed (failed checks are reported in the record, not by status),
// 2 on bad arguments or an exception.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "softfloat/kernels.hpp"

namespace pb = perfbench;

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ", ";
    out += num(xs[i]);
  }
  return out + "]";
}

std::string object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i != 0) out += ", ";
    out += quote(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

/// Per span name: count, total wall and self time (duration minus the
/// time its direct children cover, children clipped to the parent).
std::string span_summary(const std::vector<pb::SpanRecord>& spans) {
  std::map<std::uint64_t, const pb::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& s : spans) {
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const pb::SpanRecord& p = *it->second;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[p.id] += hi - lo;
  }
  struct Agg {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Agg> agg;
  for (const auto& s : spans) {
    Agg& a = agg[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    a.count += 1;
    a.total_s += 1e-9 * static_cast<double>(dur);
    a.self_s +=
        1e-9 * static_cast<double>(std::max<std::int64_t>(0, dur - child_ns[s.id]));
  }
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [name, a] : agg) {
    kv.emplace_back(name, object({{"count", num(static_cast<double>(a.count))},
                                  {"total_s", num(a.total_s)},
                                  {"self_s", num(a.self_s)}}));
  }
  return object(kv);
}

bool write_spans(const std::string& path,
                 const std::vector<pb::SpanRecord>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "  {\"name\": " << quote(s.name) << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
      << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

std::string render(const pb::Options& o, const pb::Result& r,
                   const std::vector<pb::SpanRecord>& spans) {
  namespace sf = fpq::softfloat;
  std::vector<std::pair<std::string, std::string>> run = {
      {"workload", quote(o.workload)},
      {"seed", std::to_string(o.seed)},
      {"kernel_variant",
       quote(sf::kernel_variant_name(sf::active_kernel_variant()))},
      {"pool_threads", std::to_string(pb::kPoolThreads)},
  };
  for (const auto& [k, v] : r.run_info) run.emplace_back(k, quote(v));

  std::string notes = "[";
  for (std::size_t i = 0; i < r.checks.notes().size(); ++i) {
    if (i != 0) notes += ", ";
    notes += quote(r.checks.notes()[i]);
  }
  notes += "]";

  std::string layers = "[";
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    const pb::Layer& l = r.layers[i];
    if (i != 0) layers += ",\n    ";
    layers += object({{"name", quote(l.name)},
                      {"value", num(l.value)},
                      {"unit", quote(l.unit)},
                      {"kind", quote(l.computed ? "computed" : "measured")}});
  }
  layers += "]";

  std::string parts = "[";
  for (std::size_t i = 0; i < r.part_s.size(); ++i) {
    parts += (i != 0 ? ", " : "") + array(r.part_s[i]);
  }
  parts += "]";

  std::ostringstream os;
  os << "{\n"
     << "  \"build\": "
     << object({{"compiler", quote(PERFBENCH_COMPILER)},
                {"cxx_flags", quote(PERFBENCH_CXX_FLAGS)},
                {"build_type", quote(PERFBENCH_BUILD_TYPE)}})
     << ",\n  \"machine\": "
     << object({{"cpu_model", quote(pb::cpu_model())},
                {"nproc", std::to_string(std::thread::hardware_concurrency())}})
     << ",\n  \"run\": " << object(run)
     << ",\n  \"trace\": " << (o.trace ? 1 : 0)
     << ",\n  \"item_name\": " << quote(r.item_name)
     << ",\n  \"items_per_rep\": " << num(r.items_per_rep)
     << ",\n  \"setup_s\": " << array(r.setup_s)
     << ",\n  \"rep_s\": " << array(r.rep_s)
     << ",\n  \"part_s\": " << parts
     << ",\n  \"plain_s\": " << array(r.plain_s)
     << ",\n  \"monitored_s\": " << array(r.monitored_s)
     << ",\n  \"untraced_s\": " << array(r.untraced_s)
     << ",\n  \"traced_s\": " << array(r.traced_s)
     << ",\n  \"single_thread_s\": " << num(r.single_thread_s)
     << ",\n  \"peak_rss_mb\": " << num(pb::peak_rss_mb())
     << ",\n  \"checks\": "
     << object({{"attempted", std::to_string(r.checks.attempted())},
                {"failed", std::to_string(r.checks.failed())},
                {"notes", notes}})
     << ",\n  \"inputs\": " << object(r.inputs)
     << ",\n  \"layers\": " << layers
     << ",\n  \"spans\": " << span_summary(spans) << "\n}\n";
  return os.str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--spans FILE] "
               "[--tmp DIR] [--pin HEX]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out") {
      out_path = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else if (a == "--tmp") {
      o.tmp_dir = v;
    } else if (a == "--pin") {
      o.pin = std::strtoull(v, nullptr, 16);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (out_path.empty()) usage("--out is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");

  pb::Result r;
  try {
    if (o.workload == "sweep-sqrt") {
      pb::run_sweep_sqrt(o, r);
    } else if (o.workload == "batch-b32") {
      pb::run_batch_b32(o, r);
    } else if (o.workload == "survey-stream") {
      pb::run_survey_stream(o, r);
    } else if (o.workload == "gauntlet") {
      pb::run_gauntlet(o, r);
    } else {
      usage(("unknown workload " + o.workload).c_str());
    }
    if (o.trace) {
      const double untraced = pb::median(r.untraced_s);
      r.layer("trace.overhead_ratio", pb::median(r.traced_s) / untraced,
              "ratio");
      r.layer("parallel.thread_pool.scaling_efficiency",
              r.single_thread_s /
                  (static_cast<double>(pb::kPoolThreads) * untraced),
              "ratio");
      pb::probe_sweep_layers(o, r);
      pb::probe_batch_layers(o, r);
      pb::probe_survey_layers(o, r);
      pb::probe_gauntlet_layers(o, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }

  const std::vector<pb::SpanRecord> spans = pb::collect_spans();
  if (!spans_path.empty() && !write_spans(spans_path, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  std::ofstream f(out_path);
  f << render(o, r, spans);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}
