// fpq::parallel::sweep32 — the differential verification engine: every
// check that the soft IEEE-754 engine is correct is a row of one sharded,
// fingerprinted, resumable pattern-space grid.
//
// Per pattern and rounding mode, a row races the soft engine against an
// independent reference:
//
//   * the binary32 unary rows (2^32 patterns, or 2^16 for the narrow-source
//     conversions) — sqrt, roundToIntegralExact, and the conversions
//     binary32 <-> {binary16, binary64, bfloat16} — run the soft batch
//     kernels (softfloat/batch.hpp), which are the scalar operations by
//     construction, against the host FPU under a matching fenv direction
//     where the hardware op exists (sqrt, round-to-int, widening) or an
//     integer/add-and-mask algorithm that shares no code with the soft
//     converter (binary16/bfloat16 narrowing and widening). sqrt also
//     races the IR: the tape interpreter (ir::execute_rows) on every
//     pattern and the tree walk (ir::evaluate) on a stride;
//   * the binary16 kernel rows — sqrt16 over all 2^16 encodings, add16
//     ... fma16 over all 2^32 operand pairs (decode_pair16) — run the
//     dispatched batch entry points (sqrt_n<16>, add_n<16> ...
//     fma_n<16>), so under the portable and avx2 variants they prove the
//     lane bodies the binary32 kernels share. Each lane's value is
//     compared bitwise with the exact reference of sweep32_ref.hpp, NaN
//     payload and sign included, and its value and flags with the scalar
//     soft op (skipped under the scalar variant, where they are the same
//     code);
//   * sample16 runs the scalar soft ops against the same exact references,
//     bitwise;
//   * the host rows sample32 and sample64 run the scalar soft ops against
//     the host FPU at the same width under the four fenv-expressible
//     modes (roundTiesToAway leaves their grid); any NaN matches any NaN.
//
// The sample rows draw each pattern's op (p % 6), operand class
// ((p / 6) % 4) and operands from shard_seed(constant, p), so every
// prefix of their space is stratified over ops x classes. Binary32 div
// and fma are covered by run_corner_corpus: every sign-mirrored pair (and
// corpus-pivoted triple) from the checked-in corner corpus plus
// ULP-stratified random operands, against the exact references.
//
// Sharding and checkpointing: the pattern space is cut into fixed
// 2^chunk_bits shards per rounding mode; shard identity, content and seed
// are pure functions of the config (docs/parallel.md determinism rules),
// so any subset of shards can run in any order on any thread count. One
// pool task runs every still-pending shard (mode) of a chunk: sqrt walks
// the chunk in fixed blocks, builds each block's inputs once for all its
// modes and folds the modes' fingerprint chains side by side; the other
// rows run their modes one after another. Each shard still folds its own
// patterns in ascending order, so grouping changes the schedule and
// nothing a shard records. A manifest file records each completed
// shard's result fingerprint: an
// append-only log, one checked line per shard, appended every
// checkpoint_interval completions (a kill loses at most one interval, and
// a line torn by it is dropped and its shard re-run), so a killed sweep
// resumes where it left off and CI can run bounded slices (max_shards /
// deadline) of a full overnight job. The whole-sweep fingerprint XORs a
// per-shard mix, making it independent of completion order, thread count,
// and how many runs the sweep was split across — "interrupted + resumed"
// is bit-identical to "uninterrupted" by construction, which the sweep
// tests assert.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "softfloat/env.hpp"

namespace fpq::parallel {

inline constexpr softfloat::Rounding kAllRoundings[] = {
    softfloat::Rounding::kNearestEven, softfloat::Rounding::kTowardZero,
    softfloat::Rounding::kDown, softfloat::Rounding::kUp,
    softfloat::Rounding::kNearestAway,
};

}  // namespace fpq::parallel

namespace fpq::parallel::sweep32 {

/// The grid's rows. An enumerator's value is part of its sweep identity:
/// new rows are appended, never inserted.
enum class SweepOp : std::uint8_t {
  kSqrt,            ///< sqrt(x), all five modes, raced against the IR too
  kRoundToIntegral, ///< roundToIntegralExact(x)
  kToBinary16,      ///< convert<16, 32>
  kToBinary64,      ///< convert<64, 32> (exact widening)
  kToBFloat16,      ///< convert<kBFloat16, 32>
  kFromBinary16,    ///< convert<32, 16> (2^16 space)
  kFromBFloat16,    ///< convert<32, kBFloat16> (2^16 space)
  kSqrt16,          ///< binary16 sqrt (2^16 space)
  kAdd16,           ///< binary16 add over every pair (decode_pair16)
  kSub16,           ///< binary16 sub over every pair
  kMul16,           ///< binary16 mul over every pair
  kDiv16,           ///< binary16 div over every pair
  kFma16,           ///< binary16 fma over every pair, addend from p
  kSample16,        ///< sampled binary16 ops vs the exact references
  kSample32,        ///< sampled binary32 ops vs the host FPU
  kSample64,        ///< sampled binary64 ops vs the host FPU
};
/// Kept only for perfbench/cpp/sweep_sqrt.cpp; goes with the next
/// benchmark change.
using UnaryOp32 = SweepOp;
const char* sweep_op_name(SweepOp op) noexcept;

inline constexpr SweepOp kAllSweepOps[] = {
    SweepOp::kSqrt,         SweepOp::kRoundToIntegral, SweepOp::kToBinary16,
    SweepOp::kToBinary64,   SweepOp::kToBFloat16,      SweepOp::kFromBinary16,
    SweepOp::kFromBFloat16, SweepOp::kSqrt16,          SweepOp::kAdd16,
    SweepOp::kSub16,        SweepOp::kMul16,           SweepOp::kDiv16,
    SweepOp::kFma16,        SweepOp::kSample16,        SweepOp::kSample32,
    SweepOp::kSample64,
};

/// Size of an op's input pattern space: 2^16 for the binary16 sqrt and
/// the narrow-source conversions, 2^32 otherwise.
std::uint64_t op_space_size(SweepOp op) noexcept;

/// Operand pair of pattern p in a binary16 pair row: a = p & 0xFFFF and
/// b = ((p >> 16) + mix16(a)) * C mod 2^16, for an odd C and a bijection
/// mix16. The full space visits every (a, b) exactly once; the prefix
/// [0, k * 2^16) pairs every a with k distinct partners, a set no other
/// a gets; and the pair depends on p alone.
struct Pair16 {
  std::uint16_t a = 0, b = 0;
};
Pair16 decode_pair16(std::uint32_t pattern) noexcept;
/// Inverse of decode_pair16: the pattern that checks (a, b).
std::uint32_t encode_pair16(Pair16 pair) noexcept;

struct Sweep32Config {
  SweepOp op = SweepOp::kSqrt;
  /// Rounding modes to sweep. The host rows leave roundTiesToAway out of
  /// their grid (no fenv direction expresses it).
  std::vector<softfloat::Rounding> modes{std::begin(kAllRoundings),
                                         std::end(kAllRoundings)};
  /// Half-open pattern subrange to sweep; end == 0 means op_space_size.
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// Patterns per shard = 2^chunk_bits. The shard grid is part of the
  /// sweep's identity: resuming with a different chunk_bits is an error.
  int chunk_bits = 18;
  /// Pool lanes; 0 picks ThreadPool::default_thread_count().
  std::size_t threads = 0;
  /// Checkpoint manifest path; empty runs the sweep without a checkpoint
  /// (still sharded and fingerprinted identically).
  std::string manifest_path;
  /// Shard completions between manifest appends. The records still
  /// pending are also appended once at the end of every run.
  std::size_t checkpoint_interval = 256;
  /// Cap on shards THIS run executes (0 = all still pending) — the
  /// deterministic way to split a sweep across runs, and what the
  /// interruption tests use. The run takes the first max_shards pending
  /// shards in ascending shard order.
  std::size_t max_shards = 0;
  /// Wall-clock bound for this run (0 = none): shards not yet claimed
  /// when it expires are left pending in the manifest (CI slice mode).
  std::chrono::milliseconds deadline{0};
  /// Race the independent reference / host FPU lane.
  bool race_hardware = true;
  /// Race the IR lanes (sqrt only; other ops have no IR node): the tape
  /// interpreter on every pattern and the tree walk on a stride.
  bool race_tape = true;
  /// The tree walk (ir::evaluate) is raced every this-many patterns of a
  /// shard, starting with its first; 0 disables the walk lane.
  std::size_t walk_stride = 64;
};

/// Cap on the human-readable mismatch samples a sweep run or a corpus run
/// collects.
inline constexpr std::size_t kMaxMismatchReports = 8;

/// Stable identity of a sweep's shard grid: op, grid modes, range and
/// chunk size. A manifest written under a different identity refuses to
/// resume (run_sweep32 throws std::runtime_error).
std::uint64_t sweep32_identity(const Sweep32Config& config) noexcept;

/// Total shards in the sweep's grid (grid modes x chunks); 0 when
/// chunk_bits is outside [1, 32] or the range is empty.
std::uint64_t sweep32_shard_count(const Sweep32Config& config) noexcept;

struct Sweep32Report {
  // -- Whole-sweep state (manifest union across every contributing run) --
  std::uint64_t total_shards = 0;
  std::uint64_t done_shards = 0;
  std::uint64_t checked = 0;      ///< patterns verified (sum over shards)
  std::uint64_t mismatches = 0;   ///< lane disagreements (sum over shards)
  /// Order-independent fingerprint over every completed shard's soft-lane
  /// results (values AND flags): XOR of a per-shard mix, so it is
  /// invariant under thread count, completion order, and run splits. Only
  /// comparable between runs once complete == true.
  std::uint64_t fingerprint = 0;
  bool complete = false;
  // -- This run's contribution ------------------------------------------
  std::uint64_t run_shards = 0;
  std::uint64_t run_checked = 0;
  std::uint64_t run_mismatches = 0;
  bool deadline_expired = false;
  /// Up to kMaxMismatchReports human-readable samples from this run.
  std::vector<std::string> mismatch_samples;
};

/// Runs (or resumes) a sweep. Throws std::runtime_error when the manifest
/// exists but is malformed or was written for a different sweep identity.
Sweep32Report run_sweep32(const Sweep32Config& config);

// -- Corner-case corpus runner ----------------------------------------------

struct CorpusReport {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> mismatch_samples;  ///< up to kMaxMismatchReports
};

/// Runs the checked-in corner corpus (sweep32_ref.hpp) against the exact
/// references under all five rounding modes, single-threaded:
///   * div: every sign-mirrored operand pair,
///   * fma: every sign-mirrored (a, b) pair with deterministically
///     corpus-pivoted addends,
///   * sqrt, round-to-int and all five conversions: every sign-mirrored
///     operand,
/// plus `random_cases_per_mode` ULP-stratified random operand draws per
/// (op, mode) cell seeded through shard_seed(seed, cell).
CorpusReport run_corner_corpus(std::size_t random_cases_per_mode = 0,
                               std::uint64_t seed = 0x5EE9'32);

}  // namespace fpq::parallel::sweep32
