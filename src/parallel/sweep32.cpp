// fpq::parallel::sweep32 — implementation. See sweep32.hpp for the model
// and sweep32_ref.hpp for the per-op reference arguments.

#include "parallel/sweep32.hpp"

#include <algorithm>
#include <cfenv>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "ir/evaluators.hpp"
#include "ir/expr.hpp"
#include "ir/tape.hpp"
#include "ir/tape_batch.hpp"
#include "parallel/shard.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/sweep_util.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/ops.hpp"

#if defined(__SSE__)
#include <immintrin.h>
#endif

namespace fpq::parallel::sweep32 {

namespace {

using sweep_detail::fenv_mode_of;
using sweep_detail::hw_sqrt;
using sweep_detail::ScopedFenvRounding;
using sweep_detail::Sm64;

/// splitmix64 finalizer — the fingerprint mixer. Shared constants with
/// Sm64 so the whole module has one notion of "hash this word".
std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Chunk-local fold: order-dependent within the chunk (the chunk's
/// content is deterministic), mixed per value so flag bits and result
/// bits cannot alias.
std::uint64_t fold(std::uint64_t h, std::uint64_t result_bits,
                   unsigned flags) noexcept {
  return mix64(h ^ (result_bits * 0x9E3779B97F4A7C15ULL) ^ flags);
}

/// NaN-tolerant comparison for the native-hardware lane (NaN payload
/// conventions differ across vendors; any NaN matches any NaN — the same
/// policy oracle_sweep uses for its native sweeps).
template <int kBits>
bool same_result(sf::Float<kBits> x, sf::Float<kBits> y) noexcept {
  return (x.is_nan() && y.is_nan()) || x.bits == y.bits;
}

/// One shard's verified outcome.
struct ShardDone {
  std::uint64_t fingerprint = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
};

/// One chunk's in-flight result (ShardDone plus diagnostics).
struct ChunkStats {
  std::uint64_t fingerprint = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> samples;

  void note(std::size_t budget, const std::string& text) {
    ++mismatches;
    if (samples.size() < budget) samples.push_back(text);
  }
};

template <int kBits>
std::string describe_mismatch(const char* lane, sf::Rounding mode,
                              std::uint32_t pattern, sf::Float<kBits> got,
                              sf::Float<kBits> want) {
  std::ostringstream os;
  os << lane << " mode=" << sf::rounding_to_string(mode) << " input="
     << sf::describe(sf::Float32{pattern}) << " got=" << sf::describe(got)
     << " want=" << sf::describe(want);
  return os.str();
}

// -- Manifest ---------------------------------------------------------------

constexpr const char kManifestMagic[] = "fpq-sweep32-manifest v1";

/// The checkpoint manifest: completed-shard map, persisted as a small
/// text file rewritten atomically (tmp + rename). With an empty path it
/// degrades to the in-memory map (same orchestration code path).
class Manifest {
 public:
  Manifest(std::string path, const char* op_name, std::uint64_t identity,
           std::uint64_t total_shards)
      : path_(std::move(path)),
        op_name_(op_name),
        identity_(identity),
        total_shards_(total_shards) {}

  /// Loads an existing manifest file; throws std::runtime_error when it
  /// is malformed or records a different sweep identity. Missing file
  /// (or empty path) starts fresh.
  void load() {
    if (path_.empty()) return;
    std::ifstream in(path_);
    if (!in.is_open()) return;  // fresh sweep
    std::string line;
    if (!std::getline(in, line) || line != kManifestMagic) {
      throw std::runtime_error("sweep32 manifest " + path_ +
                               ": bad magic line");
    }
    std::string key;
    bool identity_ok = false;
    bool shards_ok = false;
    while (in >> key) {
      if (key == "op") {
        std::string name;
        in >> name;  // informational; identity covers the op
      } else if (key == "identity") {
        std::uint64_t id = 0;
        if (!(in >> std::hex >> id >> std::dec)) break;
        if (id != identity_) {
          throw std::runtime_error(
              "sweep32 manifest " + path_ +
              ": identity mismatch (different op/modes/range/chunking); "
              "refusing to resume");
        }
        identity_ok = true;
      } else if (key == "shards") {
        std::uint64_t n = 0;
        if (!(in >> n)) break;
        if (n != total_shards_) {
          throw std::runtime_error("sweep32 manifest " + path_ +
                                   ": shard-grid size mismatch");
        }
        shards_ok = true;
      } else if (key == "done") {
        std::uint64_t shard = 0;
        ShardDone d;
        if (!(in >> shard >> std::hex >> d.fingerprint >> std::dec >>
              d.checked >> d.mismatches)) {
          throw std::runtime_error("sweep32 manifest " + path_ +
                                   ": truncated done record");
        }
        if (shard >= total_shards_) {
          throw std::runtime_error("sweep32 manifest " + path_ +
                                   ": shard index out of range");
        }
        done_[shard] = d;
      } else {
        throw std::runtime_error("sweep32 manifest " + path_ +
                                 ": unknown record '" + key + "'");
      }
    }
    if (!identity_ok || !shards_ok) {
      throw std::runtime_error("sweep32 manifest " + path_ +
                               ": missing identity/shards header");
    }
  }

  bool has(std::uint64_t shard) const { return done_.count(shard) != 0; }
  void record(std::uint64_t shard, const ShardDone& d) { done_[shard] = d; }
  const std::map<std::uint64_t, ShardDone>& done() const { return done_; }

  /// Atomic rewrite: the manifest is either the old complete file or the
  /// new complete file, never a torn mix.
  void write() const {
    if (path_.empty()) return;
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out.is_open()) {
        throw std::runtime_error("sweep32 manifest: cannot write " + tmp);
      }
      out << kManifestMagic << "\n";
      out << "op " << op_name_ << "\n";
      out << "identity " << std::hex << identity_ << std::dec << "\n";
      out << "shards " << total_shards_ << "\n";
      for (const auto& [shard, d] : done_) {
        out << "done " << shard << " " << std::hex << d.fingerprint
            << std::dec << " " << d.checked << " " << d.mismatches << "\n";
      }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error("sweep32 manifest: rename to " + path_ +
                               " failed");
    }
  }

 private:
  std::string path_;
  const char* op_name_;
  std::uint64_t identity_;
  std::uint64_t total_shards_;
  std::map<std::uint64_t, ShardDone> done_;
};

// -- Chunk bodies -----------------------------------------------------------

/// Host-FPU sqrt of every lane under the ambient fenv direction: four
/// lanes per SSE sqrtps where the target has it, hw_sqrt elsewhere.
void host_sqrt_n(const sf::Float32* in, sf::Float32* out, std::size_t n) {
  static_assert(sizeof(sf::Float32) == sizeof(float));
  std::size_t i = 0;
#if defined(__SSE__)
  for (; i + 4 <= n; i += 4) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_castps_si128(_mm_sqrt_ps(_mm_castsi128_ps(x))));
  }
#endif
  for (; i < n; ++i) {
    out[i] = sf::from_native(hw_sqrt<float>(sf::to_native(in[i])));
  }
}

/// A sqrt shard's buffers, kept per thread so shards reuse them instead of
/// allocating afresh. A shard larger than kKeepPatterns frees them again,
/// which bounds what a thread holds between sweeps.
struct SqrtBuffers {
  std::vector<sf::Float32> in, soft, want;
  std::vector<unsigned> flags, scratch;
  std::vector<sf::Float64> wide;
  std::vector<double> rows;
  std::vector<ir::Outcome> outs;
};
constexpr std::size_t kKeepPatterns = std::size_t{1} << 16;

/// sqrt: soft batch kernel is the canonical lane; raced against the host
/// FPU (fenv-expressible modes) or the double-path reference
/// (roundTiesToAway) plus the exact flag reference, and against the tape
/// engines when configured.
ChunkStats run_sqrt_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                          std::uint64_t p0, std::uint64_t p1,
                          const ir::Tape* tape) {
  const std::size_t n = static_cast<std::size_t>(p1 - p0);
  thread_local SqrtBuffers buf;
  std::vector<sf::Float32>& in = buf.in;
  std::vector<sf::Float32>& soft = buf.soft;
  std::vector<unsigned>& flags = buf.flags;
  in.resize(n);
  soft.resize(n);
  flags.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = sf::Float32{static_cast<std::uint32_t>(p0 + i)};
  }
  sf::Env env(mode);
  sf::sqrt_n<32>(in.data(), soft.data(), flags.data(), n, env);

  ChunkStats st;
  st.checked = n;
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint = fold(st.fingerprint, soft[i].bits, flags[i]);
  }

  const std::size_t budget = cfg.max_mismatch_reports;
  if (cfg.race_hardware) {
    std::vector<sf::Float32>& want = buf.want;
    want.resize(n);
    // No fenv equivalent of roundTiesToAway: its reference is the 53-bit
    // hardware root narrowed under ties-to-away (ties provably never
    // arise), whose NaNs are the soft engine's, so it compares bitwise.
    const bool away = mode == sf::Rounding::kNearestAway;
    if (away) {
      for (std::size_t i = 0; i < n; ++i) want[i] = ref_sqrt(in[i], mode);
    } else {
      const ScopedFenvRounding guard(fenv_mode_of(mode));
      host_sqrt_n(in.data(), want.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (away ? soft[i].bits != want[i].bits
               : !same_result(soft[i], want[i])) {
        st.note(budget, describe_mismatch(away ? "sqrt32/ref" : "sqrt32/hw",
                                          mode, in[i].bits, soft[i],
                                          want[i]));
      }
      const unsigned want_flags = ref_sqrt_flags(in[i], soft[i]);
      if (flags[i] != want_flags) {
        std::ostringstream os;
        os << "sqrt32/flags mode=" << sf::rounding_to_string(mode)
           << " input=" << sf::describe(in[i]) << " got="
           << sf::describe(soft[i]) << " flags="
           << sf::flags_to_string(flags[i])
           << " want flags=" << sf::flags_to_string(want_flags);
        st.note(budget, os.str());
      }
    }
  }

  if (cfg.race_tape && tape != nullptr) {
    std::vector<sf::Float64>& wide = buf.wide;
    std::vector<double>& rows = buf.rows;
    std::vector<ir::Outcome>& outs = buf.outs;
    wide.resize(n);
    buf.scratch.resize(n);  // flags of the exact widenings, unread
    rows.resize(n);
    outs.resize(n);
    sf::Env widen_env;
    sf::convert_n<64, 32>(in.data(), wide.data(), buf.scratch.data(), n,
                          widen_env);
    for (std::size_t i = 0; i < n; ++i) rows[i] = sf::to_native(wide[i]);
    ir::execute_rows(*tape, rows, 1, outs);
    // From here on `wide` holds the expected values: the kernel lane's
    // results, widened.
    sf::convert_n<64, 32>(soft.data(), wide.data(), buf.scratch.data(), n,
                          widen_env);
    const auto tape_mismatch = [&](const char* lane, std::size_t i,
                                   const ir::Outcome& o) {
      // The tape narrows its kVar operand quietly (no invalid on sNaN by
      // the evaluators' contract), so flags are compared only for
      // non-NaN inputs; values must agree everywhere.
      const bool flags_ok = in[i].is_nan() || o.flags == flags[i];
      if (o.value.bits == wide[i].bits && flags_ok) return;
      std::ostringstream os;
      os << lane << " mode=" << sf::rounding_to_string(mode)
         << " input=" << sf::describe(in[i]) << " got="
         << sf::describe(o.value) << " flags="
         << sf::flags_to_string(o.flags) << " want="
         << sf::describe(wide[i]) << " flags="
         << sf::flags_to_string(flags[i]);
      st.note(budget, os.str());
    };
    for (std::size_t i = 0; i < n; ++i) {
      tape_mismatch("sqrt32/tape", i, outs[i]);
    }
    if (cfg.tape_scalar_stride != 0) {
      for (std::size_t i = 0; i < n; i += cfg.tape_scalar_stride) {
        const std::span<const double> row(&rows[i], 1);
        tape_mismatch("sqrt32/tape-scalar", i, ir::execute(*tape, row));
      }
    }
  }
  if (n > kKeepPatterns) buf = SqrtBuffers{};
  return st;
}

/// roundToIntegralExact: soft batch kernel vs the host rint/round
/// reference, plus the inexact-iff-changed flag contract.
ChunkStats run_round_int_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                               std::uint64_t p0, std::uint64_t p1) {
  const std::size_t n = static_cast<std::size_t>(p1 - p0);
  std::vector<sf::Float32> in(n);
  std::vector<sf::Float32> soft(n);
  std::vector<unsigned> flags(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = sf::Float32{static_cast<std::uint32_t>(p0 + i)};
  }
  sf::Env env(mode);
  sf::round_int_n<32>(in.data(), soft.data(), flags.data(), n, env);

  ChunkStats st;
  st.checked = n;
  const std::size_t budget = cfg.max_mismatch_reports;
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint = fold(st.fingerprint, soft[i].bits, flags[i]);
    if (cfg.race_hardware) {
      const sf::Float32 want = ref_round_to_integral(in[i], mode);
      if (soft[i].bits != want.bits) {
        st.note(budget, describe_mismatch("round_int32/ref", mode,
                                          in[i].bits, soft[i], want));
      }
    }
    if (!in[i].is_nan()) {
      const bool changed = soft[i].bits != in[i].bits;
      const bool inexact = (flags[i] & sf::kFlagInexact) != 0;
      if (changed != inexact) {
        st.note(budget, describe_mismatch("round_int32/inexact-contract",
                                          mode, in[i].bits, soft[i],
                                          in[i]));
      }
    }
  }
  return st;
}

/// Narrowing/widening conversions from binary32: the soft convert_n lanes
/// vs the independent reference for the destination format.
template <int kTo, typename RefFn>
ChunkStats run_convert_from32_chunk(const Sweep32Config& cfg,
                                    const char* lane, sf::Rounding mode,
                                    std::uint64_t p0, std::uint64_t p1,
                                    RefFn ref) {
  const std::size_t n = static_cast<std::size_t>(p1 - p0);
  std::vector<sf::Float32> in(n);
  std::vector<sf::Float<kTo>> soft(n);
  std::vector<unsigned> flags(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = sf::Float32{static_cast<std::uint32_t>(p0 + i)};
  }
  sf::Env env(mode);
  sf::convert_n<kTo, 32>(in.data(), soft.data(), flags.data(), n, env);

  ChunkStats st;
  st.checked = n;
  const std::size_t budget = cfg.max_mismatch_reports;
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint =
        fold(st.fingerprint, static_cast<std::uint64_t>(soft[i].bits),
             flags[i]);
    if (cfg.race_hardware) {
      const sf::Float<kTo> want = ref(in[i], mode);
      if (soft[i].bits != want.bits) {
        st.note(budget, describe_mismatch<kTo>(lane, mode, in[i].bits,
                                               soft[i], want));
      }
    }
  }
  return st;
}

/// Widening conversions into binary32 (2^16 spaces): convert_n vs the
/// integer-rebias references. Exact in every mode, but swept per mode
/// anyway — a mode-dependent widening bug is exactly the kind of thing
/// the sweep exists to catch.
template <int kFrom, typename RefFn>
ChunkStats run_convert_to32_chunk(const Sweep32Config& cfg,
                                  const char* lane, sf::Rounding mode,
                                  std::uint64_t p0, std::uint64_t p1,
                                  RefFn ref) {
  const std::size_t n = static_cast<std::size_t>(p1 - p0);
  std::vector<sf::Float<kFrom>> in(n);
  std::vector<sf::Float32> soft(n);
  std::vector<unsigned> flags(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = sf::Float<kFrom>{
        static_cast<typename sf::Float<kFrom>::Storage>(p0 + i)};
  }
  sf::Env env(mode);
  sf::convert_n<32, kFrom>(in.data(), soft.data(), flags.data(), n, env);

  ChunkStats st;
  st.checked = n;
  const std::size_t budget = cfg.max_mismatch_reports;
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint = fold(st.fingerprint, soft[i].bits, flags[i]);
    if (cfg.race_hardware) {
      const sf::Float32 want = ref(in[i]);
      if (soft[i].bits != want.bits) {
        std::ostringstream os;
        os << lane << " mode=" << sf::rounding_to_string(mode) << " input="
           << sf::describe(in[i]) << " got=" << sf::describe(soft[i])
           << " want=" << sf::describe(want);
        st.note(budget, os.str());
      }
    }
  }
  return st;
}

ChunkStats run_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                     std::uint64_t p0, std::uint64_t p1,
                     const ir::Tape* tape) {
  switch (cfg.op) {
    case UnaryOp32::kSqrt:
      return run_sqrt_chunk(cfg, mode, p0, p1, tape);
    case UnaryOp32::kRoundToIntegral:
      return run_round_int_chunk(cfg, mode, p0, p1);
    case UnaryOp32::kToBinary16:
      return run_convert_from32_chunk<16>(cfg, "convert32to16", mode, p0,
                                          p1, ref_narrow16);
    case UnaryOp32::kToBinary64:
      return run_convert_from32_chunk<64>(
          cfg, "convert32to64", mode, p0, p1,
          [](sf::Float32 a, sf::Rounding) { return ref_widen64(a); });
    case UnaryOp32::kToBFloat16:
      return run_convert_from32_chunk<sf::kBFloat16>(
          cfg, "convert32tobf16", mode, p0, p1, ref_narrow_bf16);
    case UnaryOp32::kFromBinary16:
      return run_convert_to32_chunk<16>(cfg, "convert16to32", mode, p0, p1,
                                        ref_widen_from16);
    case UnaryOp32::kFromBFloat16:
      return run_convert_to32_chunk<sf::kBFloat16>(
          cfg, "convertbf16to32", mode, p0, p1, ref_widen_from_bf16);
  }
  return {};
}

}  // namespace

const char* unary_op32_name(UnaryOp32 op) noexcept {
  switch (op) {
    case UnaryOp32::kSqrt:
      return "sqrt";
    case UnaryOp32::kRoundToIntegral:
      return "round_int";
    case UnaryOp32::kToBinary16:
      return "to_b16";
    case UnaryOp32::kToBinary64:
      return "to_b64";
    case UnaryOp32::kToBFloat16:
      return "to_bf16";
    case UnaryOp32::kFromBinary16:
      return "from_b16";
    case UnaryOp32::kFromBFloat16:
      return "from_bf16";
  }
  return "?";
}

std::uint64_t op_space_size(UnaryOp32 op) noexcept {
  switch (op) {
    case UnaryOp32::kFromBinary16:
    case UnaryOp32::kFromBFloat16:
      return std::uint64_t{1} << 16;
    default:
      return std::uint64_t{1} << 32;
  }
}

std::uint64_t sweep32_identity(const Sweep32Config& config) noexcept {
  const std::uint64_t end =
      config.end != 0 ? config.end : op_space_size(config.op);
  std::uint64_t h = mix64(0x53'57'33'32u);  // "SW32"
  h = mix64(h ^ static_cast<std::uint64_t>(config.op));
  for (const sf::Rounding m : config.modes) {
    h = mix64(h ^ static_cast<std::uint64_t>(m));
  }
  h = mix64(h ^ config.begin);
  h = mix64(h ^ end);
  h = mix64(h ^ static_cast<std::uint64_t>(config.chunk_bits));
  return h;
}

std::uint64_t sweep32_shard_count(const Sweep32Config& config) noexcept {
  const std::uint64_t end =
      config.end != 0 ? config.end : op_space_size(config.op);
  if (end <= config.begin || config.chunk_bits <= 0) return 0;
  const std::uint64_t chunk = std::uint64_t{1} << config.chunk_bits;
  const std::uint64_t chunks = (end - config.begin + chunk - 1) / chunk;
  return chunks * config.modes.size();
}

Sweep32Report run_sweep32(const Sweep32Config& config) {
  const std::uint64_t space = op_space_size(config.op);
  const std::uint64_t end = config.end != 0 ? config.end : space;
  if (config.modes.empty()) {
    throw std::invalid_argument("sweep32: empty mode list");
  }
  if (config.chunk_bits < 1 || config.chunk_bits > 32) {
    throw std::invalid_argument("sweep32: chunk_bits out of range");
  }
  if (config.begin >= end || end > space) {
    throw std::invalid_argument("sweep32: bad pattern range");
  }
  if (config.checkpoint_interval == 0) {
    throw std::invalid_argument("sweep32: checkpoint_interval must be > 0");
  }

  const std::uint64_t chunk = std::uint64_t{1} << config.chunk_bits;
  const std::uint64_t chunks = (end - config.begin + chunk - 1) / chunk;
  const std::uint64_t total = chunks * config.modes.size();

  Manifest manifest(config.manifest_path, unary_op32_name(config.op),
                    sweep32_identity(config), total);
  manifest.load();

  // Pending shards in ascending order; max_shards makes "run the first K
  // still-pending shards" a deterministic slice of the grid.
  std::vector<std::uint64_t> pending;
  for (std::uint64_t s = 0; s < total; ++s) {
    if (!manifest.has(s)) {
      pending.push_back(s);
      if (config.max_shards != 0 && pending.size() >= config.max_shards) {
        break;
      }
    }
  }

  // One sqrt tape per rounding mode (compiled up front; shards share it
  // read-only).
  std::vector<ir::Tape> tapes;
  if (config.op == UnaryOp32::kSqrt && config.race_tape) {
    const ir::Expr e = ir::Expr::sqrt(ir::Expr::variable("x", 0));
    for (const sf::Rounding mode : config.modes) {
      ir::EvalConfig ec;
      ec.format_bits = 32;
      ec.rounding = mode;
      tapes.push_back(ir::Tape::compile(e, ec));
    }
  }

  Sweep32Report report;
  ThreadPool pool(config.threads);
  std::mutex mu;
  std::size_t completions = 0;

  RunOptions options;
  options.deadline = config.deadline;
  const ShardRunReport run = pool.run_shards(
      pending.size(), options,
      [&](std::size_t i, const CancelToken&) {
        const std::uint64_t shard = pending[i];
        const std::uint64_t mode_idx = shard / chunks;
        const std::uint64_t chunk_idx = shard % chunks;
        const std::uint64_t p0 = config.begin + chunk_idx * chunk;
        const std::uint64_t p1 = std::min<std::uint64_t>(end, p0 + chunk);
        const ir::Tape* tape =
            tapes.empty() ? nullptr : &tapes[mode_idx];
        ChunkStats st =
            run_chunk(config, config.modes[mode_idx], p0, p1, tape);

        const std::lock_guard<std::mutex> lock(mu);
        manifest.record(shard,
                        {st.fingerprint, st.checked, st.mismatches});
        report.run_shards += 1;
        report.run_checked += st.checked;
        report.run_mismatches += st.mismatches;
        for (std::string& s : st.samples) {
          if (report.mismatch_samples.size() <
              config.max_mismatch_reports) {
            report.mismatch_samples.push_back(std::move(s));
          }
        }
        if (++completions % config.checkpoint_interval == 0) {
          manifest.write();
        }
      });
  manifest.write();

  if (run.failures.count(FailureKind::kException) > 0) {
    throw ShardFailuresError(run.failures);
  }
  report.deadline_expired = run.deadline_expired;

  report.total_shards = total;
  for (const auto& [shard, d] : manifest.done()) {
    report.done_shards += 1;
    report.checked += d.checked;
    report.mismatches += d.mismatches;
    // Order-independent: XOR of a per-shard mix, invariant under thread
    // count, completion order, and resume splits.
    report.fingerprint ^= mix64(shard ^ mix64(d.fingerprint));
  }
  report.complete = report.done_shards == total;
  return report;
}

// -- Corner-case corpus -----------------------------------------------------

namespace {

void corpus_note(CorpusReport& rep, const std::string& text) {
  ++rep.mismatches;
  if (rep.mismatch_samples.size() < 8) rep.mismatch_samples.push_back(text);
}

template <int kBits>
void corpus_check(CorpusReport& rep, const char* lane, sf::Rounding mode,
                  const std::string& operands, sf::Float<kBits> got,
                  sf::Float<kBits> want) {
  ++rep.checked;
  if (got.bits == want.bits) return;
  std::ostringstream os;
  os << lane << " mode=" << sf::rounding_to_string(mode) << " " << operands
     << " got=" << sf::describe(got) << " want=" << sf::describe(want);
  corpus_note(rep, os.str());
}

std::string one_operand(sf::Float32 a) {
  return "a=" + sf::describe(a);
}
std::string two_operands(sf::Float32 a, sf::Float32 b) {
  return "a=" + sf::describe(a) + " b=" + sf::describe(b);
}
std::string three_operands(sf::Float32 a, sf::Float32 b, sf::Float32 c) {
  return "a=" + sf::describe(a) + " b=" + sf::describe(b) +
         " c=" + sf::describe(c);
}

/// All soft-vs-reference checks for one binary32 operand.
void corpus_unary(CorpusReport& rep, sf::Rounding mode, sf::Float32 a) {
  {
    sf::Env env(mode);
    corpus_check(rep, "sqrt32", mode, one_operand(a), sf::sqrt(a, env),
                 ref_sqrt(a, mode));
  }
  {
    sf::Env env(mode);
    corpus_check(rep, "round_int32", mode, one_operand(a),
                 sf::round_to_integral(a, env),
                 ref_round_to_integral(a, mode));
  }
  {
    sf::Env env(mode);
    corpus_check(rep, "convert32to16", mode, one_operand(a),
                 sf::convert<16, 32>(a, env), ref_narrow16(a, mode));
  }
  {
    sf::Env env(mode);
    corpus_check(rep, "convert32to64", mode, one_operand(a),
                 sf::convert<64, 32>(a, env), ref_widen64(a));
  }
  {
    sf::Env env(mode);
    corpus_check(rep, "convert32tobf16", mode, one_operand(a),
                 sf::convert<sf::kBFloat16, 32>(a, env),
                 ref_narrow_bf16(a, mode));
  }
}

void corpus_div(CorpusReport& rep, sf::Rounding mode, sf::Float32 a,
                sf::Float32 b) {
  sf::Env env(mode);
  corpus_check(rep, "div32", mode, two_operands(a, b), sf::div(a, b, env),
               ref_div(a, b, mode));
}

void corpus_fma(CorpusReport& rep, sf::Rounding mode, sf::Float32 a,
                sf::Float32 b, sf::Float32 c) {
  sf::Env env(mode);
  corpus_check(rep, "fma32", mode, three_operands(a, b, c),
               sf::fma(a, b, c, env), ref_fma(a, b, c, mode));
}

}  // namespace

CorpusReport run_corner_corpus(std::size_t random_cases_per_mode,
                               std::uint64_t seed) {
  CorpusReport rep;

  // Sign-mirrored corpus operands.
  std::vector<sf::Float32> ops;
  for (const std::uint32_t p : corner32_patterns()) {
    ops.push_back(sf::Float32{p});
    ops.push_back(sf::Float32{p | 0x8000'0000u});
  }
  const std::size_t n = ops.size();

  std::size_t cell = 0;
  for (const sf::Rounding mode : kAllRoundings) {
    for (std::size_t i = 0; i < n; ++i) corpus_unary(rep, mode, ops[i]);

    // The full 2^16 widening spaces: cheap enough to sweep entirely even
    // in the "fast" corpus test.
    for (std::uint32_t p = 0; p < (1u << 16); ++p) {
      {
        const sf::Float16 a{static_cast<std::uint16_t>(p)};
        sf::Env env(mode);
        const sf::Float32 got = sf::convert<32, 16>(a, env);
        const sf::Float32 want = ref_widen_from16(a);
        ++rep.checked;
        if (got.bits != want.bits) {
          corpus_note(rep, "convert16to32 mode=" +
                               sf::rounding_to_string(mode) + " a=" +
                               sf::describe(a) + " got=" +
                               sf::describe(got) + " want=" +
                               sf::describe(want));
        }
      }
      {
        const sf::BFloat16 a{static_cast<std::uint16_t>(p)};
        sf::Env env(mode);
        const sf::Float32 got = sf::convert<32, sf::kBFloat16>(a, env);
        const sf::Float32 want = ref_widen_from_bf16(a);
        ++rep.checked;
        if (got.bits != want.bits) {
          corpus_note(rep, "convertbf16to32 mode=" +
                               sf::rounding_to_string(mode) + " a=" +
                               sf::describe(a) + " got=" +
                               sf::describe(got) + " want=" +
                               sf::describe(want));
        }
      }
    }

    // Binary/ternary ops: every pair; fma addends pivot deterministically
    // through the corpus so every operand appears in the c slot.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        corpus_div(rep, mode, ops[i], ops[j]);
        corpus_fma(rep, mode, ops[i], ops[j],
                   ops[(7 * i + 13 * j) % n]);
        corpus_fma(rep, mode, ops[i], ops[j],
                   ops[(31 * i + 3 * j + 5) % n]);
      }
    }

    // ULP-stratified random operands, deterministic per (mode) cell.
    Sm64 g(shard_seed(seed, cell++));
    for (std::size_t k = 0; k < random_cases_per_mode; ++k) {
      const sf::Float32 a{ulp_stratified_pattern(g)};
      const sf::Float32 b{ulp_stratified_pattern(g)};
      const sf::Float32 c{ulp_stratified_pattern(g)};
      corpus_unary(rep, mode, a);
      corpus_div(rep, mode, a, b);
      corpus_fma(rep, mode, a, b, c);
    }
  }
  return rep;
}

}  // namespace fpq::parallel::sweep32
