// fpq::parallel::sweep32 — implementation. See sweep32.hpp for the model
// and sweep32_ref.hpp for the per-op reference arguments.

#include "parallel/sweep32.hpp"

#include <algorithm>
#include <array>
#include <cfenv>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fpmon/hardware.hpp"
#include "ir/evaluators.hpp"
#include "ir/expr.hpp"
#include "ir/tape.hpp"
#include "ir/tape_batch.hpp"
#include "parallel/hash.hpp"
#include "parallel/shard.hpp"
#include "parallel/sweep32_ref.hpp"
#include "parallel/sweep_util.hpp"
#include "softfloat/batch.hpp"
#include "softfloat/kernels.hpp"
#include "softfloat/ops.hpp"

#if defined(__SSE__)
#include <immintrin.h>
#endif

namespace fpq::parallel::sweep32 {

namespace {

namespace host = mon::host;
using mon::fenv_rounding;
using mon::ScopedFenvRounding;
using sweep_detail::Sm64;

/// Chunk-local fold: order-dependent within the chunk (the chunk's
/// content is deterministic), mixed per value so flag bits and result
/// bits cannot alias.
std::uint64_t fold(std::uint64_t h, std::uint64_t result_bits,
                   unsigned flags) noexcept {
  return mix64(h ^ (result_bits * 0x9E3779B97F4A7C15ULL) ^ flags);
}

/// NaN-tolerant comparison for the host-FPU lanes (NaN payload
/// conventions differ across vendors; any NaN matches any NaN). Lanes
/// against the exact references compare bitwise instead.
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
struct ChunkStats : ShardDone {
  std::vector<std::string> samples;

  void note(const std::string& text) {
    ++mismatches;
    if (samples.size() < kMaxMismatchReports) samples.push_back(text);
  }
};

template <int kIn, int kOut>
std::string describe_mismatch(const char* lane, sf::Rounding mode,
                              sf::Float<kIn> in, sf::Float<kOut> got,
                              sf::Float<kOut> want) {
  std::ostringstream os;
  os << lane << " mode=" << sf::rounding_to_string(mode) << " input="
     << sf::describe(in) << " got=" << sf::describe(got)
     << " want=" << sf::describe(want);
  return os.str();
}

// -- Manifest ---------------------------------------------------------------

constexpr std::string_view kManifestMagic = "fpq-sweep32-manifest v2";
constexpr std::string_view kManifestFormat = "fpq-sweep32-manifest ";

/// A done record's check word: binds its four fields, so a record edited
/// or damaged in place fails to load instead of resuming a wrong result.
std::uint64_t record_check(std::uint64_t shard, const ShardDone& d) noexcept {
  return mix64(mix64(mix64(mix64(shard) ^ d.fingerprint) ^ d.checked) ^
               d.mismatches);
}

/// Splits `line` at every space into exactly N fields; false when it has
/// any other count (so a doubled or trailing space is malformed).
template <std::size_t N>
bool split_fields(std::string_view line,
                  std::array<std::string_view, N>& fields) {
  for (std::size_t i = 0; i < N; ++i) {
    const std::size_t sp = line.find(' ');
    if ((sp == std::string_view::npos) != (i + 1 == N)) return false;
    fields[i] = line.substr(0, sp);
    line.remove_prefix(sp == std::string_view::npos ? line.size() : sp + 1);
  }
  return true;
}

/// Parses the whole of `field` as an unsigned integer in `base`.
bool parse_u64(std::string_view field, int base, std::uint64_t& v) {
  const char* end = field.data() + field.size();
  const auto [stop, ec] = std::from_chars(field.data(), end, v, base);
  return ec == std::errc{} && stop == end;
}

/// The checkpoint manifest: an append-only log of completed shards. The
/// header (magic, op, identity, shards) is written once, when the file is
/// created; record() formats each completion as a
/// `done <shard> <fp> <checked> <mismatches> <check>` line into a pending
/// buffer, and write() appends the buffer through one stream held open
/// for the run. The file is never rewritten or renamed, so a checkpoint
/// costs only its new lines. A kill can tear only the last line: load()
/// drops a final line with no '\n' (that shard re-runs) and truncates the
/// file back to the last complete line before anything is appended. With
/// an empty path it degrades to the in-memory map (same orchestration
/// code path).
class Manifest {
 public:
  Manifest(std::string path, const char* op_name, std::uint64_t identity,
           std::uint64_t total_shards)
      : path_(std::move(path)),
        op_name_(op_name),
        identity_(identity),
        total_shards_(total_shards) {}

  /// Loads an existing manifest and opens it for appending; throws
  /// std::runtime_error when it is malformed or records a different sweep
  /// identity. A missing or empty file (or empty path) starts fresh.
  void open() {
    if (path_.empty()) return;
    const std::uint64_t kept = load();
    if (kept != 0 && kept != std::filesystem::file_size(path_)) {
      std::filesystem::resize_file(path_, kept);  // drop the torn tail
    }
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_.is_open()) {
      throw std::runtime_error("sweep32 manifest: cannot open " + path_);
    }
    if (kept == 0) {
      char buf[160];
      const int n = std::snprintf(
          buf, sizeof buf, "%s\nop %s\nidentity %llx\nshards %llu\n",
          kManifestMagic.data(), op_name_,
          static_cast<unsigned long long>(identity_),
          static_cast<unsigned long long>(total_shards_));
      pending_.assign(buf, static_cast<std::size_t>(n));
      write();
    }
  }

  bool has(std::uint64_t shard) const { return done_.count(shard) != 0; }

  void record(std::uint64_t shard, const ShardDone& d) {
    done_[shard] = d;
    if (path_.empty()) return;
    char buf[128];
    const int n = std::snprintf(
        buf, sizeof buf, "done %llu %llx %llu %llu %llx\n",
        static_cast<unsigned long long>(shard),
        static_cast<unsigned long long>(d.fingerprint),
        static_cast<unsigned long long>(d.checked),
        static_cast<unsigned long long>(d.mismatches),
        static_cast<unsigned long long>(record_check(shard, d)));
    pending_.append(buf, static_cast<std::size_t>(n));
  }

  const std::map<std::uint64_t, ShardDone>& done() const { return done_; }

  /// Checkpoint: appends the records since the last one and flushes.
  void write() {
    if (pending_.empty()) return;
    out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error("sweep32 manifest: cannot append to " + path_);
    }
    pending_.clear();
  }

 private:
  [[noreturn]] void fail(std::size_t line_no, const std::string& what) const {
    throw std::runtime_error("sweep32 manifest " + path_ + ":" +
                             std::to_string(line_no) + ": " + what);
  }

  /// Reads the file's complete lines into done_; returns their length in
  /// bytes (0 when there is no file or it is empty).
  std::uint64_t load() {
    std::ifstream in(path_, std::ios::binary);
    if (!in.is_open()) return 0;  // fresh sweep
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    if (text.empty()) return 0;  // created, killed before its header
    // npos + 1 == 0: no complete line at all
    const std::size_t kept = text.rfind('\n') + 1;
    std::string_view rest(text.data(), kept);
    std::size_t line_no = 0;
    bool identity_ok = false;
    bool shards_ok = false;
    while (!rest.empty()) {
      const std::string_view line = rest.substr(0, rest.find('\n'));
      rest.remove_prefix(line.size() + 1);
      if (++line_no == 1) {
        if (line == kManifestMagic) continue;
        if (line.substr(0, kManifestFormat.size()) == kManifestFormat) {
          fail(line_no, "manifest format '" + std::string(line) +
                            "' is not " + std::string(kManifestMagic) +
                            "; refusing to resume");
        }
        fail(line_no, "bad magic line");
      }
      parse_line(line_no, line, identity_ok, shards_ok);
    }
    if (line_no == 0) fail(1, "bad magic line");
    if (!identity_ok || !shards_ok) {
      fail(line_no, "missing identity/shards header");
    }
    return kept;
  }

  void parse_line(std::size_t line_no, std::string_view line,
                  bool& identity_ok, bool& shards_ok) {
    const std::string_view key = line.substr(0, line.find(' '));
    if (key == "op") {
      std::array<std::string_view, 2> f;  // informational; identity covers it
      if (!split_fields(line, f)) fail(line_no, "malformed op line");
    } else if (key == "identity") {
      std::array<std::string_view, 2> f;
      std::uint64_t id = 0;
      if (!split_fields(line, f) || !parse_u64(f[1], 16, id)) {
        fail(line_no, "malformed identity line");
      }
      if (id != identity_) {
        fail(line_no,
             "identity mismatch (different op/modes/range/chunking); "
             "refusing to resume");
      }
      identity_ok = true;
    } else if (key == "shards") {
      std::array<std::string_view, 2> f;
      std::uint64_t n = 0;
      if (!split_fields(line, f) || !parse_u64(f[1], 10, n)) {
        fail(line_no, "malformed shards line");
      }
      if (n != total_shards_) fail(line_no, "shard-grid size mismatch");
      shards_ok = true;
    } else if (key == "done") {
      std::array<std::string_view, 6> f;
      std::uint64_t shard = 0;
      std::uint64_t check = 0;
      ShardDone d;
      if (!split_fields(line, f) || !parse_u64(f[1], 10, shard) ||
          !parse_u64(f[2], 16, d.fingerprint) ||
          !parse_u64(f[3], 10, d.checked) ||
          !parse_u64(f[4], 10, d.mismatches) || !parse_u64(f[5], 16, check)) {
        fail(line_no, "malformed done record");
      }
      if (check != record_check(shard, d)) {
        fail(line_no, "done record fails its check word");
      }
      if (shard >= total_shards_) fail(line_no, "shard index out of range");
      if (!done_.emplace(shard, d).second) {
        fail(line_no, "duplicate done record for shard " +
                          std::to_string(shard));
      }
    } else {
      fail(line_no, "unknown record '" + std::string(key) + "'");
    }
  }

  std::string path_;
  const char* op_name_;
  std::uint64_t identity_;
  std::uint64_t total_shards_;
  std::map<std::uint64_t, ShardDone> done_;
  std::ofstream out_;
  std::string pending_;  ///< records since the last checkpoint
};

// -- Chunk bodies -----------------------------------------------------------

/// Host-FPU sqrt of every lane under the ambient fenv direction: four
/// lanes per SSE sqrtps where the target has it, host::sqrt elsewhere.
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
    out[i] = sf::from_native(host::sqrt<float>(sf::to_native(in[i])));
  }
}

/// Patterns per block. The sqrt and binary16 kernel bodies walk their
/// chunk a block at a time through fixed per-thread buffers, so what a
/// thread holds is bounded whatever chunk_bits is, and a block's columns
/// stay in L2 between the producers and the check loop.
constexpr std::size_t kBlock = 1024;

/// One mode's sqrt lanes over a block.
struct SqrtModeBlock {
  std::array<sf::Float32, kBlock> soft, want;
  std::array<unsigned, kBlock> flags;
  std::array<ir::Outcome, kBlock> outs;
};

/// A sqrt task's per-thread block buffers: the input column, its binary64
/// values (the IR operand rows) and its operand-only flag reference, which
/// every mode shares, and one SqrtModeBlock per mode.
struct SqrtBlockBuffers {
  std::vector<sf::Float32> in = std::vector<sf::Float32>(kBlock);
  std::vector<double> rows = std::vector<double>(kBlock);
  std::vector<SqrtFlagsRef> flag_ref = std::vector<SqrtFlagsRef>(kBlock);
  std::vector<SqrtModeBlock> mode;
};

/// One sqrt shard's lanes over a block, checked pattern by pattern. `want`
/// is null when the reference lane is off and `outs` when the IR lanes
/// are.
struct SqrtLanes {
  sf::Rounding mode;
  const sf::Float32* in;
  const double* wide;              ///< ref_widen64 of each input
  const SqrtFlagsRef* flag_ref;    ///< SqrtFlagsRef::of each input
  const sf::Float32* soft;
  const unsigned* flags;
  const sf::Float32* want;
  const ir::Outcome* outs;

  // No fenv equivalent of roundTiesToAway: its reference is the 53-bit
  // hardware root narrowed under ties-to-away (ties provably never arise),
  // whose NaNs are the soft engine's, so it compares bitwise.
  bool away() const { return mode == sf::Rounding::kNearestAway; }
  bool ref_ok(std::size_t i) const {
    return (soft[i].bits == want[i].bits) |
           (!away() & soft[i].is_nan() & want[i].is_nan());
  }
  bool flags_ok(std::size_t i) const {
    return flags[i] == flag_ref[i].for_root(soft[i], wide[i]);
  }
  // The IR lanes narrow their operand quietly (no invalid on sNaN by the
  // evaluators' contract), so flags are compared only for non-NaN inputs;
  // values must agree everywhere.
  bool ir_ok(std::size_t i, const ir::Outcome& o) const {
    return (o.value.bits == ref_widen64(soft[i]).bits) &
           (in[i].is_nan() | (o.flags == flags[i]));
  }
  /// Sets bit `bit` of bad[i] for each of the block's n patterns on which
  /// the reference, flag or tape lane disagrees. The checks above have no
  /// branch, and each lane's loop has no call, so the compiler can keep
  /// the loops branch-free (the reference and flag loop vectorizes).
  void judge(std::size_t n, std::uint8_t* bad, unsigned bit) const {
    // A copy the byte stores cannot alias, so its fields stay in registers.
    const SqrtLanes l = *this;
    if (l.want != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        bad[i] |= static_cast<std::uint8_t>(!(l.ref_ok(i) & l.flags_ok(i)))
                  << bit;
      }
    }
    if (l.outs != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        bad[i] |= static_cast<std::uint8_t>(!l.ir_ok(i, l.outs[i])) << bit;
      }
    }
  }
};

/// Notes each lane that disagrees on pattern i, in lane order: reference,
/// flags, tape, then the tree walk when `walk` is set. Only a mismatch
/// calls it, so the text is built off the hot loop.
[[gnu::cold, gnu::noinline]] void note_sqrt_mismatches(
    const SqrtLanes& l, std::size_t i, const ir::Outcome* walk,
    ChunkStats& st) {
  const std::string mode = sf::rounding_to_string(l.mode);
  if (l.want != nullptr && !l.ref_ok(i)) {
    st.note(describe_mismatch(l.away() ? "sqrt32/ref" : "sqrt32/hw", l.mode,
                              l.in[i], l.soft[i], l.want[i]));
  }
  if (l.want != nullptr && !l.flags_ok(i)) {
    std::ostringstream os;
    os << "sqrt32/flags mode=" << mode << " input=" << sf::describe(l.in[i])
       << " got=" << sf::describe(l.soft[i])
       << " flags=" << sf::flags_to_string(l.flags[i]) << " want flags="
       << sf::flags_to_string(ref_sqrt_flags(l.in[i], l.soft[i]));
    st.note(os.str());
  }
  const auto ir_lane = [&](const char* lane, const ir::Outcome& o) {
    if (l.ir_ok(i, o)) return;
    std::ostringstream os;
    os << lane << " mode=" << mode << " input=" << sf::describe(l.in[i])
       << " got=" << sf::describe(o.value)
       << " flags=" << sf::flags_to_string(o.flags)
       << " want=" << sf::describe(ref_widen64(l.soft[i]))
       << " flags=" << sf::flags_to_string(l.flags[i]);
    st.note(os.str());
  };
  if (l.outs != nullptr) ir_lane("sqrt32/tape", l.outs[i]);
  if (walk != nullptr) ir_lane("sqrt32/walk", *walk);
}

/// The IR lanes' program for one rounding mode: sqrt(x) as a tree for the
/// walk and compiled for the tape.
struct SqrtIr {
  ir::Expr tree;
  ir::Tape tape;
};

/// One still-pending shard of a chunk task: its rounding mode and, for
/// sqrt with the IR lanes on, that mode's IR program (null otherwise).
struct ShardMode {
  sf::Rounding mode;
  const SqrtIr* ir;
};

/// Checks and folds the n patterns of a sqrt block for K modes; the
/// block starts `offset` patterns into its chunk. Each mode's lanes are
/// judged first, in loops with no branch or call. One loop then folds the
/// K chains side by side, so their serial mix64 steps overlap instead of
/// waiting on one another. Last, only the patterns on the tree-walk
/// stride (chunk positions 0, stride, 2 * stride, ...; stride 0: none) or
/// with a disagreement are visited again, in ascending order: each runs
/// the walk and notes every lane that disagrees, mode by mode.
template <std::size_t K>
void check_sqrt_block(const SqrtLanes* lanes, const ShardMode* modes,
                      const double* rows, std::size_t n, std::uint64_t offset,
                      std::size_t stride, ChunkStats* st) {
  static_assert(K <= 8, "one bit of bad[i] per mode");
  std::array<std::uint8_t, kBlock> bad{};
  for (std::size_t k = 0; k < K; ++k) lanes[k].judge(n, bad.data(), k);

  std::array<const sf::Float32*, K> soft;
  std::array<const unsigned*, K> flags;
  std::array<std::uint64_t, K> h;
  for (std::size_t k = 0; k < K; ++k) {
    soft[k] = lanes[k].soft;
    flags[k] = lanes[k].flags;
    h[k] = st[k].fingerprint;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      h[k] = fold(h[k], soft[k][i].bits, flags[k][i]);
    }
  }
  for (std::size_t k = 0; k < K; ++k) st[k].fingerprint = h[k];

  std::size_t next_walk =
      stride != 0 ? static_cast<std::size_t>((stride - offset % stride) % stride)
                  : n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool walk_here = i == next_walk;
    if (bad[i] == 0 && !walk_here) continue;
    for (std::size_t k = 0; k < K; ++k) {
      ir::Outcome one;
      const ir::Outcome* walk = nullptr;
      if (walk_here) {
        const SqrtIr& prog = *modes[k].ir;
        one = ir::evaluate(prog.tree, prog.tape.config(),
                           std::span<const double>(&rows[i], 1));
        walk = &one;
      }
      if (((bad[i] >> k) & 1) != 0 || (walk && !lanes[k].ir_ok(i, one))) {
        note_sqrt_mismatches(lanes[k], i, walk, st[k]);
      }
    }
    if (walk_here) next_walk += stride;
  }
}

/// check_sqrt_block for 1 to 5 modes, indexed by the count: a grid's modes
/// are folded side by side five at a time.
using CheckSqrtBlock = void (*)(const SqrtLanes*, const ShardMode*,
                                const double*, std::size_t, std::uint64_t,
                                std::size_t, ChunkStats*);
constexpr CheckSqrtBlock kCheckSqrtBlock[] = {
    nullptr,
    check_sqrt_block<1>,
    check_sqrt_block<2>,
    check_sqrt_block<3>,
    check_sqrt_block<4>,
    check_sqrt_block<5>,
};
constexpr std::size_t kMaxSideBySide = std::size(kCheckSqrtBlock) - 1;

/// sqrt: soft batch kernel is the canonical lane; raced against the host
/// FPU (fenv-expressible modes) or the double-path reference
/// (roundTiesToAway) plus the exact flag reference, and, when configured,
/// against the tape interpreter on every pattern and, on a stride, the
/// tree walk, which runs neither the tape compiler nor the interpreter.
/// One task runs every pending mode of its chunk, a block at a time: the
/// block's input column and IR operand rows are built once, each mode's
/// producers fill its block buffers, and one loop then folds and checks
/// every mode of each pattern (check_sqrt_block). Each mode's fingerprint
/// is its own chain over its shard's patterns in ascending order, exactly
/// as if the shard ran alone.
std::vector<ChunkStats> run_sqrt_chunk(const Sweep32Config& cfg,
                                       std::span<const ShardMode> modes,
                                       std::uint64_t p0, std::uint64_t p1) {
  const std::size_t k_modes = modes.size();
  const bool race_ir = cfg.race_tape && modes.front().ir != nullptr;
  const std::size_t stride = race_ir ? cfg.walk_stride : 0;
  thread_local SqrtBlockBuffers buf;
  if (buf.mode.size() < k_modes) buf.mode.resize(k_modes);

  std::vector<ChunkStats> st(k_modes);
  std::vector<SqrtLanes> lanes(k_modes);
  for (std::uint64_t b0 = p0; b0 < p1; b0 += kBlock) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlock, p1 - b0));
    sf::Float32* in = buf.in.data();
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = sf::Float32{static_cast<std::uint32_t>(b0 + i)};
    }
    if (cfg.race_hardware || race_ir) {
      for (std::size_t i = 0; i < n; ++i) {
        buf.rows[i] = sf::to_native(ref_widen64(in[i]));
      }
    }
    if (cfg.race_hardware) {
      for (std::size_t i = 0; i < n; ++i) {
        buf.flag_ref[i] = SqrtFlagsRef::of(in[i]);
      }
    }
    for (std::size_t k = 0; k < k_modes; ++k) {
      const sf::Rounding mode = modes[k].mode;
      SqrtModeBlock& mb = buf.mode[k];
      std::fill_n(mb.flags.data(), n, 0u);
      sf::Env env(mode);
      sf::sqrt_n<32>(in, mb.soft.data(), mb.flags.data(), n, env);
      SqrtLanes& l = lanes[k];
      l = {mode,          in,      buf.rows.data(), buf.flag_ref.data(),
           mb.soft.data(), mb.flags.data(), nullptr, nullptr};
      if (cfg.race_hardware) {
        if (l.away()) {
          ref_sqrt_away_n({in, n}, {mb.want.data(), n});
        } else {
          const ScopedFenvRounding guard(fenv_rounding(mode));
          host_sqrt_n(in, mb.want.data(), n);
        }
        l.want = mb.want.data();
      }
      if (race_ir) {
        ir::execute_rows(modes[k].ir->tape, {buf.rows.data(), n}, 1,
                         {mb.outs.data(), n});
        l.outs = mb.outs.data();
      }
    }

    for (std::size_t k = 0; k < k_modes; k += kMaxSideBySide) {
      const std::size_t group = std::min(kMaxSideBySide, k_modes - k);
      kCheckSqrtBlock[group](&lanes[k], &modes[k], buf.rows.data(), n,
                             b0 - p0, stride, &st[k]);
    }
  }
  for (ChunkStats& s : st) s.checked = p1 - p0;
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
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint = fold(st.fingerprint, soft[i].bits, flags[i]);
    if (cfg.race_hardware) {
      const sf::Float32 want = ref_round_to_integral(in[i], mode);
      if (soft[i].bits != want.bits) {
        st.note(describe_mismatch("round_int32/ref", mode, in[i], soft[i],
                                  want));
      }
    }
    if (!in[i].is_nan()) {
      const bool changed = soft[i].bits != in[i].bits;
      const bool inexact = (flags[i] & sf::kFlagInexact) != 0;
      if (changed != inexact) {
        st.note(describe_mismatch("round_int32/inexact-contract", mode,
                                  in[i], soft[i], in[i]));
      }
    }
  }
  return st;
}

/// The conversion rows: the soft convert_n lanes vs the independent
/// reference for the destination format. The widenings are exact in every
/// mode, so their references take no mode, but they are swept per mode
/// anyway — a mode-dependent widening bug is exactly the kind of thing the
/// sweep exists to catch.
template <int kTo, int kFrom, typename RefFn>
ChunkStats run_convert_chunk(const Sweep32Config& cfg, const char* lane,
                             sf::Rounding mode, std::uint64_t p0,
                             std::uint64_t p1, RefFn ref) {
  using From = sf::Float<kFrom>;
  const std::size_t n = static_cast<std::size_t>(p1 - p0);
  std::vector<From> in(n);
  std::vector<sf::Float<kTo>> soft(n);
  std::vector<unsigned> flags(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = From{static_cast<typename From::Storage>(p0 + i)};
  }
  sf::Env env(mode);
  sf::convert_n<kTo, kFrom>(in.data(), soft.data(), flags.data(), n, env);

  ChunkStats st;
  st.checked = n;
  for (std::size_t i = 0; i < n; ++i) {
    st.fingerprint =
        fold(st.fingerprint, static_cast<std::uint64_t>(soft[i].bits),
             flags[i]);
    if (cfg.race_hardware) {
      sf::Float<kTo> want;
      if constexpr (std::is_invocable_v<RefFn, From>) {
        want = ref(in[i]);
      } else {
        want = ref(in[i], mode);
      }
      if (soft[i].bits != want.bits) {
        st.note(describe_mismatch(lane, mode, in[i], soft[i], want));
      }
    }
  }
  return st;
}

// -- Case rows: the sample rows and the binary16 kernel rows ---------------

/// The six arithmetic ops, in the order of the pair rows kAdd16 ...
/// kFma16.
enum class Arith : std::uint8_t { kAdd, kSub, kMul, kDiv, kFma, kSqrt };
constexpr const char* kArithNames[] = {"add", "sub", "mul",
                                       "div", "fma", "sqrt"};

/// One check of a case row: an op and its operands (b and c unused by
/// the ops that take fewer).
template <int kBits>
struct Case {
  Arith op;
  sf::Float<kBits> a, b, c;
};

template <int kBits>
sf::Float<kBits> soft_result(const Case<kBits>& k, sf::Env& env) {
  switch (k.op) {
    case Arith::kAdd:
      return sf::add(k.a, k.b, env);
    case Arith::kSub:
      return sf::sub(k.a, k.b, env);
    case Arith::kMul:
      return sf::mul(k.a, k.b, env);
    case Arith::kDiv:
      return sf::div(k.a, k.b, env);
    case Arith::kSqrt:
      return sf::sqrt(k.a, env);
    case Arith::kFma:
      return sf::fma(k.a, k.b, k.c, env);
  }
  return {};
}

/// The exact references (binary16 and binary32).
template <int kBits>
sf::Float<kBits> ref_result(const Case<kBits>& k, sf::Rounding mode) {
  switch (k.op) {
    case Arith::kAdd:
      return ref_add(k.a, k.b, mode);
    case Arith::kSub:
      return ref_sub(k.a, k.b, mode);
    case Arith::kMul:
      return ref_mul(k.a, k.b, mode);
    case Arith::kDiv:
      return ref_div(k.a, k.b, mode);
    case Arith::kSqrt:
      return ref_sqrt(k.a, mode);
    case Arith::kFma:
      return ref_fma(k.a, k.b, k.c, mode);
  }
  return {};
}

/// The host FPU's answer at the same width, under the ambient fenv
/// direction.
template <int kBits>
sf::Float<kBits> host_result(const Case<kBits>& k) {
  const auto a = sf::to_native(k.a);
  const auto b = sf::to_native(k.b);
  switch (k.op) {
    case Arith::kAdd:
      return sf::from_native(host::add(a, b));
    case Arith::kSub:
      return sf::from_native(host::sub(a, b));
    case Arith::kMul:
      return sf::from_native(host::mul(a, b));
    case Arith::kDiv:
      return sf::from_native(host::div(a, b));
    case Arith::kSqrt:
      return sf::from_native(host::sqrt(a));
    case Arith::kFma:
      return sf::from_native(host::fma(a, b, sf::to_native(k.c)));
  }
  return {};
}

template <int kBits>
std::string describe_case(const char* lane, sf::Rounding mode,
                          const Case<kBits>& k, sf::Float<kBits> got,
                          sf::Float<kBits> want) {
  std::ostringstream os;
  os << lane << "/" << kArithNames[static_cast<int>(k.op)]
     << " mode=" << sf::rounding_to_string(mode)
     << " a=" << sf::describe(k.a);
  if (k.op != Arith::kSqrt) os << " b=" << sf::describe(k.b);
  if (k.op == Arith::kFma) os << " c=" << sf::describe(k.c);
  os << " soft=" << sf::describe(got) << " ref=" << sf::describe(want);
  return os.str();
}

// The pair mapping's odd multiplier (a bijection mod 2^16 that spreads
// consecutive partner indices over the encodings) and its inverse.
constexpr std::uint32_t kScramble = 0x9E37;
constexpr std::uint32_t kUnscramble = 0x7787;  // kScramble^-1 mod 2^16
static_assert(((kScramble * kUnscramble) & 0xFFFFu) == 1);

/// A bijection on 16 bits (odd multiply, then xorshift): every a starts
/// its run of partners at an offset no other a shares.
constexpr std::uint16_t mix16(std::uint16_t a) noexcept {
  const auto x = static_cast<std::uint16_t>(a * 0x2D4Bu);
  return static_cast<std::uint16_t>(x ^ (x >> 7));
}

/// Seeds the sample rows' per-pattern operand streams.
constexpr std::uint64_t kSampleSeed = 0x5EED16;

/// A sample row's pattern: op p % 6, operand class (p / 6) % 4, operands
/// drawn from shard_seed(kSampleSeed, p).
template <int kBits>
Case<kBits> sample_case(std::uint64_t p) {
  using F = sf::Float<kBits>;
  const auto op = static_cast<Arith>(p % 6);
  const auto cls = static_cast<OperandClass>((p / 6) % 4);
  Sm64 g(shard_seed(kSampleSeed, p));
  Case<kBits> k{op, F{gen_operand<kBits>(cls, g)}, F{}, F{}};
  if (op != Arith::kSqrt) k.b = F{gen_operand<kBits>(cls, g)};
  if (op == Arith::kFma) k.c = F{gen_operand<kBits>(cls, g)};
  return k;
}

/// A sample row's chunk: each pattern decodes to one Case; the scalar soft
/// op's value and flags are folded into the fingerprint and raced against
/// the exact references (binary16, bitwise) or the host FPU at the same
/// width under the sweep mode (binary32/64, any NaN matches any NaN).
template <int kBits>
ChunkStats run_sample_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                            std::uint64_t p0, std::uint64_t p1) {
  // The soft ops are integer code; the guard sets the direction the host
  // lane computes under, once per chunk. Binary16 has no host lane, so it
  // holds round-to-nearest, which the TwoSum of add, sub and fma pins:
  // only the div and sqrt references then switch to the sweep mode, and
  // mul is exact in any direction.
  const ScopedFenvRounding guard(kBits == 16 ? FE_TONEAREST
                                             : fenv_rounding(mode));
  ChunkStats st;
  st.checked = p1 - p0;
  for (std::uint64_t p = p0; p < p1; ++p) {
    const Case<kBits> k = sample_case<kBits>(p);
    sf::Env env(mode);
    const sf::Float<kBits> got = soft_result(k, env);
    st.fingerprint = fold(st.fingerprint, got.bits, env.flags());
    if (!cfg.race_hardware) continue;
    sf::Float<kBits> want;
    if constexpr (kBits == 16) {
      want = ref_result(k, mode);
    } else {
      want = host_result(k);
    }
    if (kBits == 16 ? got.bits != want.bits : !same_result(got, want)) {
      st.note(describe_case(sweep_op_name(cfg.op), mode, k, got, want));
    }
  }
  return st;
}

// -- Binary16 kernel rows ---------------------------------------------------

/// A binary16 kernel row's pattern: sqrt16 takes the encoding p, the pair
/// rows decode_pair16(p), and fma16's addend is a hash of p.
Case<16> kernel16_case(Arith op, std::uint64_t p) {
  if (op == Arith::kSqrt) {
    return {op, sf::Float16{static_cast<std::uint16_t>(p)}, {}, {}};
  }
  const Pair16 ab = decode_pair16(static_cast<std::uint32_t>(p));
  const auto c =
      static_cast<std::uint16_t>(op == Arith::kFma ? mix64(p) >> 48 : 0);
  return {op, sf::Float16{ab.a}, sf::Float16{ab.b}, sf::Float16{c}};
}

/// A binary16 kernel block's operand and result columns, kept per thread.
struct Kernel16Buffers {
  std::vector<sf::Float16> a = std::vector<sf::Float16>(kBlock),
                           b = std::vector<sf::Float16>(kBlock),
                           c = std::vector<sf::Float16>(kBlock),
                           out = std::vector<sf::Float16>(kBlock);
  std::vector<unsigned> flags = std::vector<unsigned>(kBlock);
};

/// The dispatched batch entry point of `op` over the first n lanes of the
/// block's columns.
void run_batch16(Arith op, Kernel16Buffers& buf, std::size_t n, sf::Env& env) {
  const sf::Float16* a = buf.a.data();
  const sf::Float16* b = buf.b.data();
  sf::Float16* out = buf.out.data();
  unsigned* fl = buf.flags.data();
  switch (op) {
    case Arith::kAdd:
      return sf::add_n<16>(a, b, out, fl, n, env);
    case Arith::kSub:
      return sf::sub_n<16>(a, b, out, fl, n, env);
    case Arith::kMul:
      return sf::mul_n<16>(a, b, out, fl, n, env);
    case Arith::kDiv:
      return sf::div_n<16>(a, b, out, fl, n, env);
    case Arith::kFma:
      return sf::fma_n<16>(a, b, buf.c.data(), out, fl, n, env);
    case Arith::kSqrt:
      return sf::sqrt_n<16>(a, out, fl, n, env);
  }
}

[[gnu::cold, gnu::noinline]] std::string describe_scalar_mismatch(
    const char* lane, sf::Rounding mode, const Case<16>& k,
    sf::Float16 got, unsigned got_flags, sf::Float16 want,
    unsigned want_flags) {
  std::ostringstream os;
  os << describe_case(lane, mode, k, got, want)
     << " (ref = scalar op) flags=" << sf::flags_to_string(got_flags)
     << " scalar flags=" << sf::flags_to_string(want_flags);
  return os.str();
}

/// The binary16 kernel rows (sqrt16, add16 ... fma16): a shard decodes
/// into operand columns, a block at a time, and runs the dispatched batch
/// entry point, the kernel every caller runs, whose (bits, flags) feed the
/// fingerprint. Each lane's value is checked bitwise against the exact
/// reference, and its value and flags against the scalar op. Under the
/// scalar variant the entry point runs the scalar op itself, so that
/// second check is skipped and the row checks the scalar op against the
/// reference.
ChunkStats run_kernel16_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                              std::uint64_t p0, std::uint64_t p1) {
  const Arith op =
      cfg.op == SweepOp::kSqrt16
          ? Arith::kSqrt
          : static_cast<Arith>(static_cast<int>(cfg.op) -
                               static_cast<int>(SweepOp::kAdd16));
  const bool directed_ref = op == Arith::kDiv || op == Arith::kSqrt;
  const bool vs_scalar = cfg.race_hardware && sf::active_kernel_variant() !=
                                                  sf::KernelVariant::kScalar;
  const char* lane = sweep_op_name(cfg.op);
  thread_local Kernel16Buffers buf;
  ChunkStats st;
  st.checked = p1 - p0;
  for (std::uint64_t b0 = p0; b0 < p1; b0 += kBlock) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlock, p1 - b0));
    for (std::size_t i = 0; i < n; ++i) {
      const Case<16> k = kernel16_case(op, b0 + i);
      buf.a[i] = k.a;
      buf.b[i] = k.b;
      buf.c[i] = k.c;
    }
    std::fill_n(buf.flags.data(), n, 0u);
    sf::Env env(mode);
    run_batch16(op, buf, n, env);

    // Each reference pins the direction its wide step needs: the sweep
    // mode for div and sqrt, round-to-nearest for the TwoSum of add, sub
    // and fma. Holding it for the whole block makes those pins no-ops.
    const ScopedFenvRounding guard(directed_ref ? fenv_rounding(mode)
                                                : FE_TONEAREST);
    for (std::size_t i = 0; i < n; ++i) {
      const sf::Float16 got = buf.out[i];
      st.fingerprint = fold(st.fingerprint, got.bits, buf.flags[i]);
      if (!cfg.race_hardware) continue;
      const Case<16> k{op, buf.a[i], buf.b[i], buf.c[i]};
      const sf::Float16 want = ref_result(k, mode);
      if (got.bits != want.bits) {
        st.note(describe_case(lane, mode, k, got, want));
      }
      if (!vs_scalar) continue;
      sf::Env scalar_env(mode);
      const sf::Float16 scalar = soft_result(k, scalar_env);
      if (scalar.bits != got.bits || scalar_env.flags() != buf.flags[i]) {
        st.note(describe_scalar_mismatch(lane, mode, k, got, buf.flags[i],
                                         scalar, scalar_env.flags()));
      }
    }
  }
  return st;
}

/// One mode of a chunk of every row but sqrt.
ChunkStats run_mode_chunk(const Sweep32Config& cfg, sf::Rounding mode,
                          std::uint64_t p0, std::uint64_t p1) {
  switch (cfg.op) {
    case SweepOp::kSqrt:
      break;  // run_chunk runs its modes side by side
    case SweepOp::kRoundToIntegral:
      return run_round_int_chunk(cfg, mode, p0, p1);
    case SweepOp::kToBinary16:
      return run_convert_chunk<16, 32>(cfg, "convert32to16", mode, p0, p1,
                                       ref_narrow16);
    case SweepOp::kToBinary64:
      return run_convert_chunk<64, 32>(cfg, "convert32to64", mode, p0, p1,
                                       ref_widen64);
    case SweepOp::kToBFloat16:
      return run_convert_chunk<sf::kBFloat16, 32>(cfg, "convert32tobf16",
                                                  mode, p0, p1,
                                                  ref_narrow_bf16);
    case SweepOp::kFromBinary16:
      return run_convert_chunk<32, 16>(cfg, "convert16to32", mode, p0, p1,
                                       ref_widen_from16);
    case SweepOp::kFromBFloat16:
      return run_convert_chunk<32, sf::kBFloat16>(cfg, "convertbf16to32",
                                                  mode, p0, p1,
                                                  ref_widen_from_bf16);
    case SweepOp::kSqrt16:
    case SweepOp::kAdd16:
    case SweepOp::kSub16:
    case SweepOp::kMul16:
    case SweepOp::kDiv16:
    case SweepOp::kFma16:
      return run_kernel16_chunk(cfg, mode, p0, p1);
    case SweepOp::kSample16:
      return run_sample_chunk<16>(cfg, mode, p0, p1);
    case SweepOp::kSample32:
      return run_sample_chunk<32>(cfg, mode, p0, p1);
    case SweepOp::kSample64:
      return run_sample_chunk<64>(cfg, mode, p0, p1);
  }
  return {};
}

/// A chunk task: every still-pending mode of chunk [p0, p1), one
/// ChunkStats per mode in the order of `modes`. sqrt runs its modes side
/// by side; every other row runs them one after another.
std::vector<ChunkStats> run_chunk(const Sweep32Config& cfg,
                                  std::span<const ShardMode> modes,
                                  std::uint64_t p0, std::uint64_t p1) {
  if (cfg.op == SweepOp::kSqrt) return run_sqrt_chunk(cfg, modes, p0, p1);
  std::vector<ChunkStats> st;
  st.reserve(modes.size());
  for (const ShardMode& m : modes) {
    st.push_back(run_mode_chunk(cfg, m.mode, p0, p1));
  }
  return st;
}

/// The host rows race the host FPU, which has no roundTiesToAway.
bool grid_has_mode(SweepOp op, sf::Rounding mode) noexcept {
  return mode != sf::Rounding::kNearestAway ||
         (op != SweepOp::kSample32 && op != SweepOp::kSample64);
}

/// The sweep's pattern grid, resolved in one place for the identity, the
/// shard count and the run.
struct Grid {
  std::uint64_t end = 0;     ///< config.end, or the op's space size
  std::uint64_t chunk = 0;   ///< patterns per shard
  std::uint64_t chunks = 0;  ///< shards per mode; 0 outside the bounds
};

Grid grid_of(const Sweep32Config& config) noexcept {
  Grid g;
  g.end = config.end != 0 ? config.end : op_space_size(config.op);
  if (config.chunk_bits < 1 || config.chunk_bits > 32 ||
      config.begin >= g.end) {
    return g;
  }
  g.chunk = std::uint64_t{1} << config.chunk_bits;
  g.chunks = (g.end - config.begin + g.chunk - 1) / g.chunk;
  return g;
}

}  // namespace

const char* sweep_op_name(SweepOp op) noexcept {
  static constexpr const char* kNames[] = {
      "sqrt",     "round_int", "to_b16", "to_b64",   "to_bf16",
      "from_b16", "from_bf16", "sqrt16", "add16",    "sub16",
      "mul16",    "div16",     "fma16",  "sample16", "sample32",
      "sample64",
  };
  static_assert(std::size(kNames) == std::size(kAllSweepOps));
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::uint64_t op_space_size(SweepOp op) noexcept {
  switch (op) {
    case SweepOp::kFromBinary16:
    case SweepOp::kFromBFloat16:
    case SweepOp::kSqrt16:
      return std::uint64_t{1} << 16;
    default:
      return std::uint64_t{1} << 32;
  }
}

Pair16 decode_pair16(std::uint32_t pattern) noexcept {
  const auto a = static_cast<std::uint16_t>(pattern);
  const auto k = static_cast<std::uint16_t>(pattern >> 16);
  return {a, static_cast<std::uint16_t>((k + mix16(a)) * kScramble)};
}

std::uint32_t encode_pair16(Pair16 pair) noexcept {
  const auto k = static_cast<std::uint16_t>(pair.b * kUnscramble -
                                            mix16(pair.a));
  return (std::uint32_t{k} << 16) | pair.a;
}

std::uint64_t sweep32_identity(const Sweep32Config& config) noexcept {
  std::uint64_t h = mix64(0x53'57'33'32u);  // "SW32"
  h = mix64(h ^ static_cast<std::uint64_t>(config.op));
  for (const sf::Rounding m : config.modes) {
    if (grid_has_mode(config.op, m)) {
      h = mix64(h ^ static_cast<std::uint64_t>(m));
    }
  }
  h = mix64(h ^ config.begin);
  h = mix64(h ^ grid_of(config).end);
  h = mix64(h ^ static_cast<std::uint64_t>(config.chunk_bits));
  return h;
}

std::uint64_t sweep32_shard_count(const Sweep32Config& config) noexcept {
  std::uint64_t modes = 0;
  for (const sf::Rounding m : config.modes) {
    modes += grid_has_mode(config.op, m) ? 1 : 0;
  }
  return grid_of(config).chunks * modes;
}

Sweep32Report run_sweep32(const Sweep32Config& config) {
  std::vector<sf::Rounding> modes;
  for (const sf::Rounding m : config.modes) {
    if (grid_has_mode(config.op, m)) modes.push_back(m);
  }
  if (modes.empty()) {
    throw std::invalid_argument(
        "sweep32: empty mode list (host rows drop roundTiesToAway)");
  }
  if (config.chunk_bits < 1 || config.chunk_bits > 32) {
    throw std::invalid_argument("sweep32: chunk_bits out of range");
  }
  const Grid grid = grid_of(config);
  if (grid.chunks == 0 || grid.end > op_space_size(config.op)) {
    throw std::invalid_argument("sweep32: bad pattern range");
  }
  if (config.checkpoint_interval == 0) {
    throw std::invalid_argument("sweep32: checkpoint_interval must be > 0");
  }
  const std::uint64_t total = grid.chunks * modes.size();

  Manifest manifest(config.manifest_path, sweep_op_name(config.op),
                    sweep32_identity(config), total);
  manifest.open();

  // Pending shards in ascending order; max_shards makes "run the first K
  // still-pending shards" a deterministic slice of the grid. One task per
  // chunk takes every pending shard (mode) of that chunk; tasks run in
  // ascending chunk order.
  struct ChunkTask {
    std::uint64_t chunk = 0;
    std::vector<std::uint64_t> mode_idx;  ///< ascending
  };
  std::vector<ChunkTask> tasks;
  {
    std::vector<std::vector<std::uint64_t>> by_chunk(grid.chunks);
    std::size_t pending = 0;
    for (std::uint64_t s = 0; s < total; ++s) {
      if (manifest.has(s)) continue;
      by_chunk[s % grid.chunks].push_back(s / grid.chunks);
      if (config.max_shards != 0 && ++pending >= config.max_shards) break;
    }
    for (std::uint64_t c = 0; c < grid.chunks; ++c) {
      if (!by_chunk[c].empty()) tasks.push_back({c, std::move(by_chunk[c])});
    }
  }

  // One sqrt program per rounding mode (compiled up front; tasks share
  // it read-only).
  std::vector<SqrtIr> sqrt_ir;
  if (config.op == SweepOp::kSqrt && config.race_tape) {
    const ir::Expr e = ir::Expr::sqrt(ir::Expr::variable("x", 0));
    for (const sf::Rounding mode : modes) {
      ir::EvalConfig ec;
      ec.format_bits = 32;
      ec.rounding = mode;
      sqrt_ir.push_back({e, ir::Tape::compile(e, ec)});
    }
  }

  Sweep32Report report;
  ThreadPool pool(config.threads);
  std::mutex mu;
  std::size_t completions = 0;

  const ShardRunReport run = pool.run_shards(
      tasks.size(), config.deadline, [&](std::size_t i) {
        const ChunkTask& task = tasks[i];
        const std::uint64_t p0 = config.begin + task.chunk * grid.chunk;
        const std::uint64_t p1 =
            std::min<std::uint64_t>(grid.end, p0 + grid.chunk);
        std::vector<ShardMode> shard_modes;
        for (const std::uint64_t m : task.mode_idx) {
          shard_modes.push_back(
              {modes[m], sqrt_ir.empty() ? nullptr : &sqrt_ir[m]});
        }
        std::vector<ChunkStats> st = run_chunk(config, shard_modes, p0, p1);

        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t k = 0; k < st.size(); ++k) {
          manifest.record(task.mode_idx[k] * grid.chunks + task.chunk, st[k]);
          report.run_shards += 1;
          report.run_checked += st[k].checked;
          report.run_mismatches += st[k].mismatches;
          for (std::string& s : st[k].samples) {
            if (report.mismatch_samples.size() < kMaxMismatchReports) {
              report.mismatch_samples.push_back(std::move(s));
            }
          }
          if (++completions % config.checkpoint_interval == 0) {
            manifest.write();
          }
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
  if (rep.mismatch_samples.size() < kMaxMismatchReports) {
    rep.mismatch_samples.push_back(text);
  }
}

template <int kIn, int kBits>
void corpus_check(CorpusReport& rep, const char* lane, sf::Rounding mode,
                  sf::Float<kIn> a, sf::Float<kBits> got,
                  sf::Float<kBits> want) {
  ++rep.checked;
  if (got.bits == want.bits) return;
  std::ostringstream os;
  os << lane << " mode=" << sf::rounding_to_string(mode)
     << " a=" << sf::describe(a) << " got=" << sf::describe(got)
     << " want=" << sf::describe(want);
  corpus_note(rep, os.str());
}

/// One binary32 arithmetic check against the exact references.
void corpus_case(CorpusReport& rep, sf::Rounding mode, const Case<32>& k) {
  sf::Env env(mode);
  const sf::Float32 got = soft_result(k, env);
  const sf::Float32 want = ref_result(k, mode);
  ++rep.checked;
  if (got.bits != want.bits) {
    corpus_note(rep, describe_case("corpus32", mode, k, got, want));
  }
}

/// All soft-vs-reference checks for one binary32 operand (values only, so
/// one Env serves every op).
void corpus_unary(CorpusReport& rep, sf::Rounding mode, sf::Float32 a) {
  corpus_case(rep, mode, {Arith::kSqrt, a, {}, {}});
  sf::Env env(mode);
  corpus_check(rep, "round_int32", mode, a, sf::round_to_integral(a, env),
               ref_round_to_integral(a, mode));
  corpus_check(rep, "convert32to16", mode, a, sf::convert<16, 32>(a, env),
               ref_narrow16(a, mode));
  corpus_check(rep, "convert32to64", mode, a, sf::convert<64, 32>(a, env),
               ref_widen64(a));
  corpus_check(rep, "convert32tobf16", mode, a,
               sf::convert<sf::kBFloat16, 32>(a, env),
               ref_narrow_bf16(a, mode));
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
    sf::Env env(mode);
    for (std::uint32_t p = 0; p < (1u << 16); ++p) {
      const sf::Float16 h{static_cast<std::uint16_t>(p)};
      const sf::BFloat16 bf{static_cast<std::uint16_t>(p)};
      corpus_check(rep, "convert16to32", mode, h, sf::convert<32, 16>(h, env),
                   ref_widen_from16(h));
      corpus_check(rep, "convertbf16to32", mode, bf,
                   sf::convert<32, sf::kBFloat16>(bf, env),
                   ref_widen_from_bf16(bf));
    }

    // Binary/ternary ops: every pair; fma addends pivot deterministically
    // through the corpus so every operand appears in the c slot.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        corpus_case(rep, mode, {Arith::kDiv, ops[i], ops[j], {}});
        corpus_case(rep, mode,
                    {Arith::kFma, ops[i], ops[j], ops[(7 * i + 13 * j) % n]});
        corpus_case(rep, mode, {Arith::kFma, ops[i], ops[j],
                                ops[(31 * i + 3 * j + 5) % n]});
      }
    }

    // ULP-stratified random operands, deterministic per (mode) cell.
    Sm64 g(shard_seed(seed, cell++));
    for (std::size_t k = 0; k < random_cases_per_mode; ++k) {
      const sf::Float32 a{ulp_stratified_pattern(g)};
      const sf::Float32 b{ulp_stratified_pattern(g)};
      const sf::Float32 c{ulp_stratified_pattern(g)};
      corpus_unary(rep, mode, a);
      corpus_case(rep, mode, {Arith::kDiv, a, b, {}});
      corpus_case(rep, mode, {Arith::kFma, a, b, c});
    }
  }
  return rep;
}

}  // namespace fpq::parallel::sweep32
